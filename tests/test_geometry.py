import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkflow import geometry as geo
from minkflow.errors import GridTooCoarse, NotSpaceLike, QuadratureFailed
from minkflow.geometry import (curve_from_graph_fn, frame_from_graph,
                               frame_from_lightcone, read_curve_csv,
                               reconstruct_positions, write_curve_csv)


def logcosh_curve(n=200001, bound=20.0):
    return curve_from_graph_fn(
        lambda x: np.abs(x) + np.log1p(np.exp(-2 * np.abs(x))) - math.log(2),
        np.tanh, lambda x: 1.0 / np.cosh(x) ** 2, (-bound, bound), n)


class TestFrameFromGraph:
    def test_straight_line(self):
        xs = np.linspace(-1, 1, 21)
        c = frame_from_graph(xs, np.zeros_like(xs))
        assert np.max(np.abs(c.k)) == 0.0
        assert np.max(np.abs(c.theta)) == 0.0
        # T = 1, N = h
        assert np.allclose(np.cosh(c.theta), 1.0)

    def test_unit_hyperbola_curvature(self):
        errs = []
        for n in (201, 401):
            xs = np.linspace(-2, 2, n)
            c = frame_from_graph(xs, np.sqrt(xs ** 2 + 1))
            errs.append(np.max(np.abs(c.k - 1.0)))
        assert errs[0] < 5e-3
        assert errs[0] / errs[1] > 3.0  # second-order refinement

    def test_logcosh_at_origin(self):
        xs = np.linspace(-1, 1, 201)
        c = frame_from_graph(xs, np.log(np.cosh(xs)))
        i = np.argmin(np.abs(c.x))
        assert c.k[i] == pytest.approx(1.0, abs=1e-4)
        assert c.s[i] == 0.0  # base point convention

    def test_not_space_like(self):
        xs = np.linspace(-2, 2, 101)
        with pytest.raises(NotSpaceLike):
            frame_from_graph(xs, 1.2 * xs)

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            frame_from_graph(np.array([0.0, 1, 2, 3]), np.zeros(4))

    @pytest.mark.parametrize("field", ["xs", "ys"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, field, bad):
        data = {"xs": np.linspace(-1, 1, 21), "ys": np.zeros(21)}
        data[field][-1 if field == "xs" else 7] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            frame_from_graph(data["xs"], data["ys"])
        lightcone = {"xs": "etas", "ys": "xis"}[field]
        data["ys"] = np.linspace(-1, 1, 21)
        data[field][-1 if field == "xs" else 7] = bad
        with pytest.raises(ValueError, match=f"{lightcone} must be finite"):
            frame_from_lightcone(data["xs"], data["ys"])


class TestFrameFromLightcone:
    def test_axis(self):
        e = np.linspace(-1, 1, 21)
        c = frame_from_lightcone(e, e.copy())
        assert np.max(np.abs(c.k)) < 1e-12

    def test_exponential(self):
        e = np.linspace(-2, 2, 801)
        c = frame_from_lightcone(e, np.exp(e))
        i = np.argmin(np.abs(e))
        assert c.k[i] == pytest.approx(0.5, abs=1e-5)
        # k = 1/s with s measured from the finite end: s(eta) = 2 e^{eta/2}
        assert np.max(np.abs(c.k * 2 * np.exp(e / 2) - 1.0)) < 1e-4
        s_from_end = c.s - c.s[0] + 2 * math.exp(e[0] / 2)
        assert np.max(np.abs(c.k * s_from_end - 1.0)) < 1e-4

    def test_not_space_like(self):
        e = np.linspace(-1, 1, 51)
        with pytest.raises(NotSpaceLike):
            frame_from_lightcone(e, -e)

    def test_tanh_length(self):
        # The default slope guard rejects xi' < 1e-8 (|eta| > ~9.9), where
        # the remaining length tail is still 2e-4; accept every strictly
        # positive slope for this truncation.  Beyond |eta| ~ 15 the grid
        # cannot resolve 1 - tanh(eta) at all (~1.2e-6 of length).
        e = np.linspace(-15, 15, 20001)
        c = frame_from_lightcone(e, np.tanh(e), slope_tol=0.0)
        assert c.s[-1] - c.s[0] == pytest.approx(math.pi, abs=1e-4)


class TestLength:
    def test_straight_segment(self):
        xs = np.linspace(0, 3.5, 101)
        c = frame_from_graph(xs, np.zeros_like(xs))
        assert c.s[-1] - c.s[0] == pytest.approx(3.5, abs=1e-12)

    def test_translator_pi(self):
        c = logcosh_curve()
        assert c.s[-1] - c.s[0] == pytest.approx(math.pi, abs=1e-6)


class TestSupportFunctions:
    # The support map is its own inverse: reconstruct_positions applied to
    # (x, y, theta) gives (tau, nu).
    def test_unit_hyperbola_fixed_point(self):
        s = np.linspace(-1, 1, 201)
        c = geo.Curve(s, np.sinh(s), np.cosh(s), s.copy(), np.ones_like(s),
                      np.zeros_like(s), -np.ones_like(s))
        sf = reconstruct_positions(c.x, c.y, c.theta)
        assert np.max(np.abs(sf[:, 0])) < 1e-12
        assert np.max(np.abs(sf[:, 1] + 1)) < 1e-12

    def test_line_through_origin(self):
        xs = np.linspace(-3, 3, 101)
        c = frame_from_graph(xs, np.zeros_like(xs))
        sf = reconstruct_positions(c.x, c.y, c.theta)
        assert np.allclose(sf[:, 0], c.s, atol=1e-13)
        assert np.allclose(sf[:, 1], 0.0, atol=1e-13)

    def test_translated_line(self):
        xs = np.linspace(-3, 3, 101)
        c = frame_from_graph(xs, np.full_like(xs, -1.0))
        sf = reconstruct_positions(c.x, c.y, c.theta)
        assert np.allclose(sf[:, 0], c.s, atol=1e-12)
        assert np.allclose(sf[:, 1], 1.0, atol=1e-12)

    def test_support_ode_residual_first_order(self):
        # tau_s = 1 + k nu, nu_s = k tau on discrete data
        errs = []
        for n in (401, 801):
            xs = np.linspace(-1.5, 1.5, n)
            c = frame_from_graph(xs, np.log(np.cosh(xs)))
            dtau = np.gradient(c.tau, c.s, edge_order=2)
            dnu = np.gradient(c.nu, c.s, edge_order=2)
            r1 = np.max(np.abs(dtau - (1 + c.k * c.nu))[2:-2])
            r2 = np.max(np.abs(dnu - c.k * c.tau)[2:-2])
            errs.append(max(r1, r2))
        assert errs[1] < errs[0]
        assert errs[0] < 1e-3


class TestFrameProperties:
    def test_reconstruction_identity(self):
        xs = np.linspace(-2, 2, 801)
        c = frame_from_graph(xs, np.log(np.cosh(xs)))
        pts = reconstruct_positions(c.tau, c.nu, c.theta)
        assert np.max(np.abs(pts - c.points)) < 1e-12

    def test_frenet_second_order(self):
        errs = []
        for n in (201, 401, 801):
            xs = np.linspace(-1.5, 1.5, n)
            c = frame_from_graph(xs, np.log(np.cosh(xs)))
            Tx, Ty = np.cosh(c.theta), np.sinh(c.theta)
            rx = np.gradient(Tx, c.s, edge_order=2) - c.k * Ty
            ry = np.gradient(Ty, c.s, edge_order=2) - c.k * Tx
            errs.append(np.max(np.hypot(rx, ry)[2:-2]))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_chord_consistency(self):
        # Chords are space-like and match the s increments to O(ds^3).
        xs = np.linspace(-2, 2, 2001)
        c = frame_from_graph(xs, np.log(np.cosh(xs)))
        dx, dy = np.diff(c.x), np.diff(c.y)
        q = (dx - dy) * (dx + dy)
        assert np.min(q) > 0
        ds = np.diff(c.s)
        assert np.max(np.abs(ds - np.sqrt(q))) < 10 * np.max(ds) ** 3


def test_csv_round_trip(tmp_path):
    xs = np.linspace(-1, 1, 51)
    c = frame_from_graph(xs, np.sqrt(xs ** 2 + 1))
    path = tmp_path / "curve.csv"
    write_curve_csv(c, path)
    header = path.read_text().splitlines()[0]
    assert header == "s,x,y,xi,eta,theta,k,tau,nu"
    back = read_curve_csv(path)
    for field in ("s", "x", "y", "theta", "k", "tau", "nu"):
        assert np.array_equal(getattr(back, field), getattr(c, field))


def test_csv_written_atomically(tmp_path, monkeypatch):
    # A write that fails leaves the old file whole and no temporary file
    # behind; the file used to be opened in place, which truncates it.
    xs = np.linspace(-1, 1, 51)
    c = frame_from_graph(xs, np.sqrt(xs ** 2 + 1))
    path = tmp_path / "curve.csv"
    path.write_text("old\n")

    def full(*args):
        raise OSError("No space left on device")
    monkeypatch.setattr(os, "replace", full)
    with pytest.raises(OSError, match="No space left on device"):
        write_curve_csv(c, path)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


# Cells (d, w): the integrands 1/(d + t) and 1/sqrt(2 (d + t)) over
# (0, w), a pole at distance d below the interval, as on a screw cell
# next to a root of D.
_CELLS = st.lists(st.tuples(st.floats(1e-9, 10.0), st.floats(1e-6, 1.0)),
                  min_size=1, max_size=8)


def _both(d):
    d = np.expand_dims(d, -1)
    return lambda t: np.stack((1.0 / (d + t), 1.0 / np.sqrt(2.0 * (d + t))))


@settings(max_examples=30, deadline=None)
@given(_CELLS)
def test_double_exponential_batch_matches_closed_forms(cells):
    d, w = np.array(cells).T
    exact = np.stack((np.log1p(w / d),   # and sqrt(2(d + w)) - sqrt(2d):
                      2.0 * w / (np.sqrt(2.0 * (d + w)) + np.sqrt(2.0 * d))))
    batch = geo._double_exponential(_both(d), (0.0, w), str)
    alone = np.transpose([geo._double_exponential(_both(di), (0.0, wi), str)
                          for di, wi in zip(d, w)])
    for got in (batch, alone):
        assert got.shape == exact.shape
        assert np.max(np.abs(got / exact - 1.0)) < 1e-13


def test_double_exponential_names_the_first_unsettled_interval(monkeypatch):
    monkeypatch.setattr(geo, "DE_LEVELS", 2)
    d = np.array([1.0, 1e-6, 1e-6])
    with pytest.raises(QuadratureFailed,
                       match=r"^interval 1 did not settle by step 2\^-4 "):
        geo._double_exponential(_both(d), (np.zeros(3), np.ones(3)),
                                "interval {}".format)
