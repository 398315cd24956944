import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from causaltab.data import ColumnSchema, Dataset, complete_cases, standardize
from causaltab.errors import (
    CausalTabError,
    DegenerateGroupError,
    DomainError,
    IncompleteViewError,
    NotCategoricalError,
    RankDeficientError,
    SingularCorrelationError,
    UnknownColumnError,
    ZeroBaseError,
    ZeroVarianceError,
)
from causaltab.stats import (
    ContingencyTable2x2,
    chisq_sf,
    fisher_exact,
    fisher_z_batch,
    fisher_z_from_correlation,
    fold_increase,
    g_squared_batch,
    g_squared_test,
    ols,
    point_biserial,
)

from oracles import (
    fisher_exact_fraction,
    fisher_z_ci_test,
    pearson_r,
    reference_fisher_z_from_correlation,
    reference_g_squared_test,
)

mp.mp.dps = 30


def std_matrix(columns: dict[str, np.ndarray]):
    schema = [ColumnSchema(n, "continuous", "c") for n in columns]
    ds = Dataset(schema, columns)
    return standardize(ds.view())


class TestChisqSf:
    def test_zero_is_one(self):
        for k in (1, 2, 7.5):
            assert chisq_sf(0.0, k) == 1.0

    def test_against_incomplete_gamma_oracle(self):
        oracle = float(mp.gammainc(mp.mpf(1) / 2, mp.mpf("3.841459") / 2, mp.inf, regularized=True))
        assert abs(chisq_sf(3.841459, 1) - oracle) < 1e-12
        assert abs(chisq_sf(3.841459, 1) - 0.05) < 1e-6

    def test_ten_ten_value(self):
        # frozen from the regularized incomplete gamma oracle; a seeded
        # Monte-Carlo of sums of squared normals agrees at its own precision
        assert abs(chisq_sf(10.0, 10) - 0.440493285065) < 1e-9
        rng = np.random.default_rng(2024)
        draws = (rng.standard_normal((200_000, 10)) ** 2).sum(axis=1)
        assert abs(chisq_sf(10.0, 10) - float((draws > 10).mean())) < 4e-3

    def test_decreasing_in_x(self):
        vals = [chisq_sf(x, 3) for x in np.linspace(0, 20, 50)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chisq_sf(-1.0, 2)
        with pytest.raises(DomainError):
            chisq_sf(1.0, 0)


class TestFisherZ:
    def test_identical_columns_reject(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        m = std_matrix({"x": x, "y": x + 0.0})
        res = fisher_z_ci_test("x", "y", (), m)
        assert res.p_value < 1e-12

    def test_chain_conditional_independence(self):
        # X -> Z -> Y with unit coefficients and noise: X ⟂ Y | Z
        accept = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(5000)
            z = x + rng.standard_normal(5000)
            y = z + rng.standard_normal(5000)
            m = std_matrix({"x": x, "y": y, "z": z})
            res = fisher_z_ci_test("x", "y", ("z",), m)
            accept += res.p_value > 0.05
        assert accept >= 180

    def test_null_calibration_smoke(self):
        rejections = 0
        reps = 400
        for seed in range(reps):
            rng = np.random.default_rng(10_000 + seed)
            m = std_matrix(
                {"x": rng.standard_normal(2000), "y": rng.standard_normal(2000)}
            )
            rejections += fisher_z_ci_test("x", "y", (), m).p_value <= 0.05
        assert abs(rejections / reps - 0.05) < 0.03

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        y = 0.4 * x + rng.standard_normal(300)
        z = rng.standard_normal(300)
        p1 = fisher_z_ci_test("x", "y", ("z",), std_matrix({"x": x, "y": y, "z": z})).p_value
        p2 = fisher_z_ci_test(
            "x", "y", ("z",), std_matrix({"x": 10 * x + 3, "y": -2 * y, "z": 0.5 * z - 7})
        ).p_value
        assert abs(p1 - p2) < 1e-12

    def test_sample_too_small(self):
        m = std_matrix({"x": np.array([1.0, 2, 3, 4]), "y": np.array([2.0, 1, 4, 3])})
        from causaltab.errors import SampleTooSmallError

        with pytest.raises(SampleTooSmallError):
            fisher_z_ci_test("x", "y", ("x",), m)

    def test_collinear_conditioning_set(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        z = rng.standard_normal(100)
        m = std_matrix({"x": x, "y": y, "z1": z, "z2": z * 1.0})
        with pytest.raises(SingularCorrelationError):
            fisher_z_ci_test("x", "y", ("z1", "z2"), m)

    def test_effect_is_partial_correlation(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal(2000)
        x = z + rng.standard_normal(2000)
        y = z + rng.standard_normal(2000)
        m = std_matrix({"x": x, "y": y, "z": z})
        res = fisher_z_ci_test("x", "y", ("z",), m)
        assert abs(res.effect) < 0.1  # true partial correlation is 0


def categorical_view(columns: dict[str, np.ndarray], levels=2):
    schema = [
        ColumnSchema(n, "binary" if levels == 2 else "ordinal", "c",
                     levels=tuple(str(i) for i in range(levels)))
        for n in columns
    ]
    ds = Dataset(schema, columns)
    return ds.view()


class TestGSquared:
    def test_known_table_against_direct_formula(self):
        # 2x2 table [[30,10],[10,30]]: G2 and p frozen from a
        # high-precision evaluation of 2*sum O*ln(O/E)
        x = np.array([0.0] * 40 + [1.0] * 40)
        y = np.array([0.0] * 30 + [1.0] * 10 + [0.0] * 10 + [1.0] * 30)
        res = g_squared_test("x", "y", (), categorical_view({"x": x, "y": y}))
        assert abs(res.statistic - 20.9299257506) < 1e-9
        assert abs(res.p_value - 4.76393847957e-6) < 1e-6
        assert res.dof == 1

    def test_identical_columns_reject(self):
        rng = np.random.default_rng(1)
        x = (rng.random(400) < 0.5).astype(float)
        res = g_squared_test("x", "y", (), categorical_view({"x": x, "y": x.copy()}))
        assert res.p_value < 1e-10

    def test_null_calibration_smoke(self):
        rejections = 0
        reps = 400
        for seed in range(reps):
            rng = np.random.default_rng(20_000 + seed)
            x = (rng.random(2000) < 0.5).astype(float)
            y = (rng.random(2000) < 0.5).astype(float)
            res = g_squared_test("x", "y", (), categorical_view({"x": x, "y": y}))
            rejections += res.p_value <= 0.05
        assert abs(rejections / reps - 0.05) < 0.03

    def test_zero_statistic_when_observed_equals_expected(self):
        x = np.array([0.0, 0, 1, 1] * 10)
        y = np.array([0.0, 1, 0, 1] * 10)
        res = g_squared_test("x", "y", (), categorical_view({"x": x, "y": y}))
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_stratified_dof_and_empty_strata(self):
        # S has 2 binary variables -> dof = 1*1*4 even when a stratum is empty
        rng = np.random.default_rng(3)
        x = (rng.random(200) < 0.5).astype(float)
        y = (rng.random(200) < 0.5).astype(float)
        s1 = (rng.random(200) < 0.5).astype(float)
        s2 = np.zeros(200)  # second stratum variable constant: strata half empty
        view = categorical_view({"x": x, "y": y, "s1": s1, "s2": s2})
        res = g_squared_test("x", "y", ("s1", "s2"), view)
        assert res.dof == 4
        assert res.statistic >= 0.0

    def test_multilevel_ordinal_admitted(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 3, 300).astype(float)
        y = rng.integers(0, 3, 300).astype(float)
        res = g_squared_test("x", "y", (), categorical_view({"x": x, "y": y}, levels=3))
        assert res.dof == 4

    def test_continuous_column_rejected(self):
        from causaltab.errors import NotCategoricalError

        x = np.array([0.0, 1, 0, 1])
        schema = [
            ColumnSchema("x", "binary", "c", levels=("0", "1")),
            ColumnSchema("y", "continuous", "c"),
        ]
        ds = Dataset(schema, {"x": x, "y": x + 0.5})
        with pytest.raises(NotCategoricalError):
            g_squared_test("x", "y", (), ds.view())


def _raised(call):
    """(type, message) of the error ``call`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestGSquaredMatchesReference:
    """The per-view decoded codes give the per-call decoder's exact answers."""

    def test_seeded_tables_match_reference(self):
        rng = np.random.default_rng(606)
        empty_strata = empty_margins = 0
        for draw in range(400):
            n = int(rng.integers(5, 301))
            n_given = draw % 4
            names = ["x", "y", *(f"s{i}" for i in range(n_given))]
            schema, columns = [], {}
            for name in names:
                k = int(rng.integers(2, 4))
                schema.append(ColumnSchema(
                    name, "binary" if k == 2 else "ordinal", "c",
                    levels=tuple(str(i) for i in range(k)),
                ))
                # skewed level weights leave levels, and so strata and
                # margins, empty in small tables
                weights = rng.dirichlet(np.full(k, 0.4))
                columns[name] = rng.choice(k, size=n, p=weights).astype(float)
            # a column with missing cells makes the view a row subset
            pad = rng.random(n)
            pad[rng.random(n) < 0.2] = np.nan
            schema.append(ColumnSchema("pad", "continuous", "c"))
            columns["pad"] = pad
            ds = Dataset(schema, columns)
            view = complete_cases(ds, [*names, "pad"])
            if view.n_rows < 2:
                continue
            given = tuple(names[2:])
            got = g_squared_test("x", "y", given, view)
            want = reference_g_squared_test("x", "y", given, view)
            assert got.statistic == want.statistic, draw
            assert got.p_value == want.p_value, draw
            assert got.dof == want.dof, draw

            codes = {c: view.coded(c).astype(int) for c in names}
            levels = {c: sch.n_levels for c, sch in zip(names, schema)}
            strata = {tuple(codes[c][r] for c in given) for r in range(view.n_rows)}
            n_strata = int(np.prod([levels[c] for c in given])) if given else 1
            empty_strata += len(strata) < n_strata
            empty_margins += any(
                np.bincount(codes[c], minlength=levels[c]).min() == 0 for c in ("x", "y")
            )
        assert empty_strata > 0 and empty_margins > 0

    def test_decoded_once_per_view(self):
        rng = np.random.default_rng(7)
        view = categorical_view({c: rng.integers(0, 2, 50).astype(float) for c in "xyz"})
        decoded = view.categorical_codes
        assert view.categorical_codes is decoded
        assert set(decoded) == {"x", "y", "z"}
        codes, k = decoded["x"]
        assert codes.dtype == np.int64 and k == 2 and not codes.flags.writeable
        g_squared_test("x", "y", ("z",), view)
        assert view.categorical_codes is decoded

    @pytest.fixture()
    def mixed_view(self):
        rng = np.random.default_rng(8)
        schema = [
            ColumnSchema("a", "binary", "c", levels=("0", "1")),
            ColumnSchema("b", "ordinal", "c", levels=("0", "1", "2")),
            ColumnSchema("hole", "binary", "c", levels=("0", "1")),
            ColumnSchema("lab", "continuous", "c"),
            ColumnSchema("out", "binary", "c", levels=("0", "1")),
        ]
        hole = rng.integers(0, 2, 60).astype(float)
        hole[5] = np.nan
        ds = Dataset(schema, {
            "a": rng.integers(0, 2, 60).astype(float),
            "b": rng.integers(0, 3, 60).astype(float),
            "hole": hole,
            "lab": rng.random(60),
            "out": rng.integers(0, 2, 60).astype(float),
        })
        view = ds.view(["a", "b", "hole", "lab"])
        assert set(view.categorical_codes) == {"a", "b"}
        return view

    @pytest.mark.parametrize(
        "x, y, given, error",
        [
            ("lab", "a", (), NotCategoricalError),
            ("a", "lab", (), NotCategoricalError),
            ("a", "b", ("lab",), NotCategoricalError),
            ("hole", "a", (), IncompleteViewError),
            ("a", "b", ("hole",), IncompleteViewError),
            ("a", "out", (), UnknownColumnError),
            ("a", "b", ("nowhere",), UnknownColumnError),
            # kind is checked before view membership, membership before
            # missing cells
            ("out", "lab", (), NotCategoricalError),
            ("hole", "out", (), UnknownColumnError),
        ],
    )
    def test_errors_match_reference(self, mixed_view, x, y, given, error):
        got = _raised(lambda: g_squared_test(x, y, given, mixed_view))
        assert got[0] is error
        assert got == _raised(lambda: reference_g_squared_test(x, y, given, mixed_view))


def _p_or_none(kernel):
    """The p-value ``kernel()`` returns, or None if it raises a package error."""
    try:
        return kernel().p_value
    except CausalTabError:
        return None


def _result_or_error(kernel, corr, n, given):
    """``kernel``'s result for (0, 1 | given), or the (type, message) of its package error."""
    try:
        return kernel(corr, n, 0, 1, given)
    except CausalTabError as error:
        return type(error), str(error)


class TestBatchKernels:
    """The batch kernels give the one-set kernels' p-values bit for bit."""

    def test_g_squared_batch_matches_one_set_kernel(self):
        rng = np.random.default_rng(1101)
        several_strata_counts = 0
        for draw in range(120):
            n = int(rng.integers(5, 301))
            names = ["x", "y", *(f"s{i}" for i in range(6))]
            schema, columns = [], {}
            for name in names:
                k = int(rng.integers(2, 4))
                schema.append(ColumnSchema(
                    name, "binary" if k == 2 else "ordinal", "c",
                    levels=tuple(str(i) for i in range(k)),
                ))
                weights = rng.dirichlet(np.full(k, 0.4))
                columns[name] = rng.choice(k, size=n, p=weights).astype(float)
            view = Dataset(schema, columns).view()
            size = draw % 4
            givens = list(itertools.combinations(names[2:], size))[: int(rng.integers(1, 33))]
            got = g_squared_batch("x", "y", givens, view)
            want = [g_squared_test("x", "y", g, view).p_value for g in givens]
            assert got == want, draw
            levels = {c.name: c.n_levels for c in schema}
            counts = {math.prod(levels[c] for c in g) for g in givens}
            several_strata_counts += len(counts) > 1
        assert several_strata_counts > 0

    def test_g_squared_batch_leaves_raising_sets_unanswered(self):
        rng = np.random.default_rng(1102)
        schema = [
            ColumnSchema("a", "binary", "c", levels=("0", "1")),
            ColumnSchema("b", "ordinal", "c", levels=("0", "1", "2")),
            ColumnSchema("c", "binary", "c", levels=("0", "1")),
            ColumnSchema("hole", "binary", "c", levels=("0", "1")),
            ColumnSchema("lab", "continuous", "c"),
        ]
        hole = rng.integers(0, 2, 80).astype(float)
        hole[3] = np.nan
        ds = Dataset(schema, {
            "a": rng.integers(0, 2, 80).astype(float),
            "b": rng.integers(0, 3, 80).astype(float),
            "c": rng.integers(0, 2, 80).astype(float),
            "hole": hole,
            "lab": rng.random(80),
        })
        view = ds.view(["a", "b", "c", "hole", "lab"])
        givens = [("c",), ("lab",), ("hole",), ("nowhere",), ("b",)]
        got = g_squared_batch("a", "b", givens, view)
        assert got[1:4] == [None, None, None]
        for given, p in zip(givens, got):
            assert p == _p_or_none(lambda: g_squared_test("a", "b", given, view))
        assert g_squared_batch("lab", "a", [("c",), ("b",)], view) == [None, None]

    def test_fisher_z_batch_matches_one_set_kernel(self):
        rng = np.random.default_rng(1103)
        for draw in range(60):
            n = int(rng.integers(20, 400))
            mixing = rng.standard_normal((8, 8))
            data = rng.standard_normal((n, 8)) @ mixing
            corr = np.corrcoef(data, rowvar=False)
            size = draw % 5
            givens = list(itertools.combinations(range(2, 8), size))[: int(rng.integers(1, 33))]
            got = fisher_z_batch(corr, n, 0, 1, givens)
            want = [reference_fisher_z_from_correlation(corr, n, 0, 1, g).p_value for g in givens]
            assert got == want, draw

    def test_fisher_z_batch_of_empty_sets(self):
        corr = np.corrcoef(np.random.default_rng(1104).standard_normal((50, 3)), rowvar=False)
        want = reference_fisher_z_from_correlation(corr, 50, 0, 2, ()).p_value
        assert fisher_z_batch(corr, 50, 0, 2, [()]) == [want]

    def test_fisher_z_matches_reference(self):
        rng = np.random.default_rng(1106)
        too_small = 0
        for draw in range(80):
            n = int(rng.integers(5, 401))
            data = rng.standard_normal((n, 7)) @ rng.standard_normal((7, 7))
            corr = np.corrcoef(data, rowvar=False)
            size = draw % 5
            givens = list(itertools.combinations(range(2, 7), size))[: int(rng.integers(1, 11))]
            for given in givens:
                # TestResult equality compares statistic, p-value, dof and
                # effect with ==
                want = _result_or_error(reference_fisher_z_from_correlation, corr, n, given)
                assert _result_or_error(fisher_z_from_correlation, corr, n, given) == want, draw
                too_small += n - size - 3 <= 0
            want_p = [
                _p_or_none(lambda: reference_fisher_z_from_correlation(corr, n, 0, 1, g))
                for g in givens
            ]
            assert fisher_z_batch(corr, n, 0, 1, givens) == want_p, draw
        assert too_small > 0

    def test_fisher_z_ill_conditioned_submatrix(self):
        # symmetric with a unit diagonal but not positive definite: the
        # inverse of the (0, 1, 2) submatrix has diagonal 1.048 and -2.167
        corr = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 1.2], [0.3, 1.2, 1.0]])
        message = "correlation submatrix for (0, 1 | (2,)) is ill-conditioned"
        for kernel in (fisher_z_from_correlation, reference_fisher_z_from_correlation):
            with pytest.raises(SingularCorrelationError) as info:
                kernel(corr, 100, 0, 1, (2,))
            assert str(info.value) == message
        assert fisher_z_batch(corr, 100, 0, 1, [(2,)]) == [None]

    def test_fisher_z_batch_leaves_raising_sets_unanswered(self):
        rng = np.random.default_rng(1105)
        z = rng.standard_normal(100)
        data = np.column_stack([rng.standard_normal((100, 3)), z, z])
        corr = np.corrcoef(data, rowvar=False)
        assert None not in fisher_z_batch(corr, 100, 0, 1, [(2,), (3,), (4,)])
        # a singular submatrix fails the whole stack
        assert fisher_z_batch(corr, 100, 0, 1, [(2, 3), (3, 4)]) == [None, None]
        with pytest.raises(SingularCorrelationError):
            fisher_z_from_correlation(corr, 100, 0, 1, (3, 4))
        # too few rows for the set size
        assert fisher_z_batch(corr, 5, 0, 1, [(2, 3), (2, 4)]) == [None, None]

    def test_batches_need_sets_of_one_size(self):
        view = categorical_view({c: np.array([0.0, 1, 0, 1, 1, 0]) for c in "xyzw"})
        with pytest.raises(ValueError, match="one size"):
            g_squared_batch("x", "y", [("z",), ("z", "w")], view)
        with pytest.raises(ValueError, match="one size"):
            fisher_z_batch(np.eye(4), 6, 0, 1, [(2,), ()])


class TestFisherExact:
    def test_flat_table_is_one(self):
        res = fisher_exact(ContingencyTable2x2(1, 1, 1, 1))
        assert res.p_value == 1.0

    def test_copd_table_matches_reported_value(self):
        res = fisher_exact(ContingencyTable2x2(20, 9, 51, 185))
        assert res.p_value / 5.2e-7 < 1.2
        assert 5.2e-7 / res.p_value < 1.2

    def test_exhaustive_small_tables_match_fraction_oracle(self):
        for total in range(1, 26):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    for c in range(total - a - b + 1):
                        d = total - a - b - c
                        ours = fisher_exact(ContingencyTable2x2(a, b, c, d)).p_value
                        oracle = fisher_exact_fraction(a, b, c, d)
                        assert abs(ours - oracle) < 1e-12

    def test_large_table_matches_fraction_oracle(self):
        # 1,200 rows: the hypergeometric weights exceed the float range,
        # so the tolerance comparison must stay in integers
        res = fisher_exact(ContingencyTable2x2(144, 216, 216, 624))
        oracle = fisher_exact_fraction(144, 216, 216, 624)
        assert abs(res.p_value - oracle) <= 1e-12 * oracle

    def test_symmetry_under_row_and_column_swap(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b, c, d = (int(v) for v in rng.integers(0, 30, 4))
            if a + b + c + d == 0:
                continue
            p1 = fisher_exact(ContingencyTable2x2(a, b, c, d)).p_value
            p2 = fisher_exact(ContingencyTable2x2(d, c, b, a)).p_value
            assert abs(p1 - p2) < 1e-12


class TestPointBiserial:
    def test_small_example_matches_pearson(self):
        res = point_biserial([0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0])
        assert abs(res.effect - pearson_r([0, 0, 1, 1], [1, 2, 3, 4])) < 1e-15
        assert abs(res.effect - 0.894427191) < 1e-6

    def test_mirrored_deviations_give_zero(self):
        res = point_biserial([0, 0, 1, 1], [1.0, 3.0, 3.0, 1.0])
        assert abs(res.effect) < 1e-15

    def test_random_data_matches_pearson_oracle(self):
        rng = np.random.default_rng(17)
        g = (rng.random(200) < 0.4).astype(float)
        x = rng.standard_normal(200) + g
        res = point_biserial(g, x)
        assert abs(res.effect - pearson_r(g, x)) < 1e-12

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(23)
        g = (rng.random(100) < 0.5).astype(float)
        x = rng.standard_normal(100) + 0.3 * g
        base = point_biserial(g, x)
        scaled = point_biserial(g, 4.0 * x + 11.0)
        flipped = point_biserial(1.0 - g, x)
        assert abs(base.effect - scaled.effect) < 1e-12
        assert abs(base.effect + flipped.effect) < 1e-12
        assert abs(base.p_value - flipped.p_value) < 1e-12

    def test_degenerate_group(self):
        with pytest.raises(DegenerateGroupError):
            point_biserial([1, 1, 1], [1.0, 2.0, 3.0])

    def test_constant_x(self):
        with pytest.raises(ZeroVarianceError):
            point_biserial([0, 1, 0, 1], [2.0, 2.0, 2.0, 2.0])


class TestOls:
    def test_exact_line(self):
        x = np.linspace(0, 1, 20)
        beta = ols(2 * x + 1, x.reshape(-1, 1))
        assert abs(beta[0] - 1.0) < 1e-10
        assert abs(beta[1] - 2.0) < 1e-10

    def test_known_sem_coefficients(self):
        rng = np.random.default_rng(29)
        x1 = rng.standard_normal(1000)
        x2 = rng.standard_normal(1000)
        y = 3 * x1 - x2 + 0.01 * rng.standard_normal(1000)
        beta = ols(y, np.column_stack([x1, x2]))
        assert abs(beta[1] - 3.0) < 0.01
        assert abs(beta[2] + 1.0) < 0.01

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((200, 3))
        y = X @ [1.0, -2.0, 0.5] + rng.standard_normal(200)
        beta = ols(y, X)
        design = np.column_stack([np.ones(200), X])
        residuals = y - design @ beta
        assert np.all(np.abs(design.T @ residuals) < 1e-8)

    def test_collinear_columns(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal(50)
        with pytest.raises(RankDeficientError):
            ols(x + 1.0, np.column_stack([x, 2 * x]))


class TestFoldIncrease:
    def test_reported_factors(self):
        assert fold_increase(0.690, 0.268).factor == 2.6
        assert fold_increase(0.719, 0.268).factor == 2.7

    def test_identity(self):
        assert fold_increase(0.3, 0.3).factor == 1.0

    def test_zero_base(self):
        with pytest.raises(ZeroBaseError):
            fold_increase(0.5, 0.0)


def test_determinism_bit_identical():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(500)
    y = 0.3 * x + rng.standard_normal(500)
    m = std_matrix({"x": x, "y": y})
    r1 = fisher_z_ci_test("x", "y", (), m)
    r2 = fisher_z_ci_test("x", "y", (), m)
    assert r1 == r2
    t = ContingencyTable2x2(12, 3, 9, 17)
    assert fisher_exact(t) == fisher_exact(t)
