"""Data ingestion and design-matrix construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from vbvar.vardata import (
    CsvFormatError,
    DesignData,
    InsufficientObservationsError,
    MissingValueError,
    build_design,
    lag_columns,
    load_csv,
    z_block,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_shapes(self, tmp_path):
        rows = "\n".join(f"{i},{i + 0.5},{i - 1}" for i in range(200))
        path = _write(tmp_path, "a,b,c\n" + rows + "\n")
        values = load_csv(path)
        assert values.shape == (200, 3)
        assert values.dtype == float
        np.testing.assert_array_equal(values[5], [5.0, 5.5, 4.0])

    def test_blank_cell_names_location(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3,\n")
        with pytest.raises(MissingValueError, match=r"row 3, column 'b'"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_names_location(self, tmp_path, cell):
        path = _write(tmp_path, f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(MissingValueError,
                           match=rf"non-finite value '{cell}' at row 3, column 'b'"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = _write(tmp_path, "a,b\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(path)

    def test_non_numeric_names_location(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\nx,4\n")
        with pytest.raises(CsvFormatError, match=r"row 3, column 'a'"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path)

    def test_timestamps(self, tmp_path):
        path = _write(tmp_path, "date,a,b\n2001Q1,1,2\n2001Q2,3,4\n")
        values = load_csv(path, has_timestamps=True)
        np.testing.assert_array_equal(values, [[1, 2], [3, 4]])


class TestBuildDesign:
    def test_lag1_rows(self):
        raw = np.arange(8.0).reshape(4, 2)  # rows r1..r4
        d = build_design(raw, 1)
        np.testing.assert_allclose(d.Y, raw[1:])
        np.testing.assert_allclose(d.X[0], [1.0, raw[0, 0], raw[0, 1]])
        np.testing.assert_allclose(d.X[:, 0], 1.0)

    def test_reference_dimensions(self):
        d = build_design(np.random.default_rng(0).standard_normal((200, 3)), 4)
        assert d.effective_T == 196
        assert d.n_regressors == 13
        assert d.n_vars == 3

    def test_lag_ordering(self):
        raw = np.arange(10.0).reshape(5, 2)
        d = build_design(raw, 2)
        # row t: (1, y'_{t-1}, y'_{t-2})
        np.testing.assert_allclose(d.X[0], [1.0, *raw[1], *raw[0]])
        np.testing.assert_allclose(d.Y[0], raw[2])

    @pytest.mark.parametrize("m,d", [(1, 1), (2, 3), (3, 2)])
    def test_lag_columns_layout(self, m, d):
        # column 1 + (l-1)*M + j of X holds lag l of variable j
        lag, var = lag_columns(m, d)
        assert lag.tolist() == [l for l in range(1, d + 1) for _ in range(m)]
        assert var.tolist() == list(range(m)) * d
        raw = np.random.default_rng(m + d).standard_normal((d + 6, m))
        x = build_design(raw, d).X
        for col, (l, j) in enumerate(zip(lag, var), start=1):
            assert np.array_equal(x[:, col], raw[d - l:len(raw) - l, j])

    def test_insufficient_observations(self):
        with pytest.raises(InsufficientObservationsError):
            build_design(np.ones((3, 1)), 3)

    def test_invalid_lag(self):
        with pytest.raises(ValueError):
            build_design(np.ones((3, 1)), 0)

    @pytest.mark.parametrize("shape", [(5,), (5, 0), (5, 2, 1)],
                             ids=["1-D", "no-columns", "3-D"])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(ValueError, match="2-D array with at least one column"):
            build_design(np.ones(shape), 1)

    @pytest.mark.parametrize("row", [0, 2, 3])
    def test_rejects_nan(self, row):
        # row 0 reaches only X, row 3 only Y, row 2 both
        raw = np.ones((4, 2))
        raw[row, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            build_design(raw, 1)

    def test_roundtrip_zero_noise(self):
        # data generated as Y = X Gamma reproduces zero residuals
        rng = np.random.default_rng(1)
        m, d, t_raw = 2, 2, 60
        gamma = 0.2 * rng.standard_normal((m * d + 1, m))
        values = np.zeros((t_raw, m))
        values[:d] = rng.standard_normal((d, m))
        for t in range(d, t_raw):
            x = np.concatenate([[1.0], values[t - 1], values[t - 2]])
            values[t] = x @ gamma
        dd = build_design(values, d)
        np.testing.assert_allclose(dd.Y - dd.X @ gamma, 0.0, atol=1e-12)


class TestZBlock:
    def test_single_equation(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(z_block(x, 1), x[None, :])

    def test_two_equations_layout(self):
        z = z_block(np.array([1.0, 2.0]), 2)
        np.testing.assert_allclose(
            z, [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]]
        )

    def test_consistency_with_matrix_form(self):
        rng = np.random.default_rng(2)
        m, p = 3, 4
        gamma = rng.standard_normal((p, m))
        beta = gamma.flatten(order="F")  # stack columns equation by equation
        x = rng.standard_normal(p)
        np.testing.assert_allclose(z_block(x, m) @ beta, x @ gamma, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 3])
    def test_design_residuals(self, d):
        # row t of DesignData.residuals(beta) is y_t - Z_t beta
        rng = np.random.default_rng(10 + d)
        dd = build_design(rng.standard_normal((20, 3)), d)
        beta = rng.standard_normal(dd.n_vars * dd.n_regressors)
        expected = [y - z_block(x, dd.n_vars) @ beta for y, x in zip(dd.Y, dd.X)]
        np.testing.assert_allclose(dd.residuals(beta), expected, rtol=1e-13, atol=1e-13)

    @given(
        m=st.integers(min_value=1, max_value=4),
        p=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_stacked_matrix_equivalence(self, m, p, seed):
        # sum_t Z_t' A Z_t == A kron X'X for block-diagonal Z_t
        rng = np.random.default_rng(seed)
        t = 6
        x = rng.standard_normal((t, p))
        a = rng.standard_normal((m, m))
        a = a @ a.T + np.eye(m)
        total = np.zeros((m * p, m * p))
        for row in x:
            z = z_block(row, m)
            total += z.T @ a @ z
        np.testing.assert_allclose(total, np.kron(a, x.T @ x), atol=1e-10)


class TestDesignData:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DesignData(Y=np.ones((4, 2)), X=np.ones((4, 4)), lag_order=1)
        with pytest.raises(ValueError):
            DesignData(Y=np.ones((4, 2)), X=np.ones((3, 5)), lag_order=2)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("extra", [1, 30])
    def test_next_regressors_is_next_design_row(self, d, extra):
        # effective T = extra: 1 is the shortest sample with a design at all
        raw = np.random.default_rng(d).standard_normal((d + extra + 1, 2))
        design = build_design(raw[:-1], d)
        extended = build_design(raw, d)
        np.testing.assert_array_equal(design.next_regressors(), extended.X[-1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["Y", "X"])
    def test_rejects_non_finite(self, where, bad):
        arrays = {"Y": np.ones((4, 2)), "X": np.ones((4, 3))}
        arrays[where][2, 1] = bad
        with pytest.raises(ValueError, match="Y and X must be finite"):
            DesignData(**arrays, lag_order=1)

    @pytest.mark.parametrize("m", [1, 2])
    def test_next_regressors_at_lag_order_0(self, m):
        y = np.random.default_rng(m).standard_normal((5, m))
        design = DesignData(Y=y, X=np.ones((5, 1)), lag_order=0)
        np.testing.assert_array_equal(design.next_regressors(), [1.0])

    def test_log_likelihood_sums_row_densities(self):
        rng = np.random.default_rng(11)
        design = build_design(rng.standard_normal((30, 2)), 2)
        coefs = rng.standard_normal((3, design.n_regressors, 2))
        precs = np.array([a @ a.T + np.eye(2) for a in rng.standard_normal((3, 2, 2))])
        got = design.log_likelihood(coefs, precs, np.linalg.slogdet(precs)[1])
        want = [stats.multivariate_normal.logpdf(design.Y - design.X @ c,
                                                 cov=np.linalg.inv(w)).sum()
                for c, w in zip(coefs, precs)]
        np.testing.assert_allclose(got, want, rtol=1e-10)
