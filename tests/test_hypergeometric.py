"""Tests for the confluent hypergeometric kernel.

Expected values marked "frozen" were computed once with mpmath at 40
significant digits and pasted here verbatim; they are independent of
the implementation under test.
"""
import math

import numpy as np
import pytest
import scipy.special as sc

from entrysolve import AccuracyError, HypergeometricArgs, kummer_m, tricomi_u
from entrysolve.hypergeometric import _m_vec

# frozen mpmath references: (a, b, z) -> M(a, b, z)
M_ORACLES = {
    (1.3, 3.1, 7.5): 107.43951974036354113,
    (4.5, 10.7, 160.0): 8.9451083280057576035e+60,
    (5.640539, 12.881078, 155.0): 1.2397532866684566802e+58,
    (4.0920, 9.7840, 60.0): 2.1183710084669122763e+20,
}

# frozen mpmath references: (a, b, z) -> U(a, b, z)
U_ORACLES = {
    (1.0, 1.0, 1.0): 0.59634736232319407434,
    (1.3, 0.7, 2.4): 0.18540282844474691579,
    (5.6405, 12.881, 0.032): 2.663501553872342481e+23,
    (5.6405, 12.881, 1.6464): 3018.7316420425493129,
    (5.6405, 12.881, 16.0): 1.3131813602902016396e-6,
    (4.0920, 9.7840, 6.4): 0.0071473336445420819288,
}


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class TestKummerM:
    def test_frozen_oracles(self):
        for (a, b, z), want in M_ORACLES.items():
            got = kummer_m(HypergeometricArgs(a, b, z))
            assert rel_err(got, want) < 1e-10, (a, b, z)

    def test_at_zero_is_one(self):
        assert kummer_m(HypergeometricArgs(2.7, 5.3, 0.0)) == 1.0

    def test_exponential_identity(self):
        # M(1, 1, z) = e^z, up to z = 400
        for z in (0.5, 2.0, 30.0, 120.0, 200.0, 400.0):
            got = kummer_m(HypergeometricArgs(1.0, 1.0, z))
            assert rel_err(got, math.exp(z)) < 1e-10, z

    def test_expm1_identity(self):
        # M(1, 2, z) = (e^z - 1) / z
        for z in (0.3, 1.0, 10.0, 80.0, 250.0):
            got = kummer_m(HypergeometricArgs(1.0, 2.0, z))
            assert rel_err(got, math.expm1(z) / z) < 1e-10, z

    def test_against_scipy(self):
        # independent library route, moderate arguments
        for a in (0.7, 2.3, 5.64):
            for b in (1.9, 6.2, 12.88):
                for z in (0.1, 1.0, 8.0, 40.0):
                    got = kummer_m(HypergeometricArgs(a, b, z))
                    want = sc.hyp1f1(a, b, z)
                    assert rel_err(got, want) < 1e-9, (a, b, z)

    def test_kummer_transform_internal(self):
        # M(a, b, z) = e^z M(b-a, b, -z); the signed-z route is internal
        want = 0.38180136336437428453  # frozen: M(2, 6.2, -3.5)
        got = float(_m_vec(2.0, 6.2, np.asarray([-3.5]))[0])
        assert rel_err(got, want) < 1e-10
        for a, b, z in ((1.5, 4.0, 6.0), (3.2, 7.7, 25.0)):
            lhs = kummer_m(HypergeometricArgs(a, b, z))
            rhs = math.exp(z) * float(_m_vec(b - a, b, np.asarray([-z]))[0])
            assert rel_err(lhs, rhs) < 1e-8

    def test_deep_negative_z_internal(self):
        for z in (-12.0, -60.0, -300.0):
            got = float(_m_vec(1.0, 3.0, np.asarray([z]))[0])
            want = sc.hyp1f1(1.0, 3.0, z)
            assert rel_err(got, want) < 1e-9, z

    def test_derivative_identity(self):
        # dM/dz = (a/b) M(a+1, b+1, z) vs 5-point central differences
        for a, b, z in ((1.3, 3.1, 2.0), (5.64, 12.88, 20.0), (2.0, 4.5, 0.8)):
            ident = (a / b) * kummer_m(HypergeometricArgs(a + 1, b + 1, z))
            h = 1e-3 * max(z, 1.0)
            f = [kummer_m(HypergeometricArgs(a, b, z + k * h))
                 for k in (-2, -1, 1, 2)]
            fd = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
            assert rel_err(fd, ident) < 1e-8, (a, b, z)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            HypergeometricArgs(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            HypergeometricArgs(1.0, -3.0, 1.0)
        with pytest.raises(ValueError):
            HypergeometricArgs(1.0, 2.0, -1.0)
        # b = -2.5 is fine, only non-positive integers are poles
        HypergeometricArgs(1.0, -2.5, 1.0)


class TestTricomiU:
    def test_frozen_oracles(self):
        for (a, b, z), want in U_ORACLES.items():
            got = tricomi_u(HypergeometricArgs(a, b, z))
            assert rel_err(got, want) < 1e-8, (a, b, z)

    def test_power_identity(self):
        # U(a, a+1, z) = z^(-a)
        for a, z in ((2.0, 4.0), (0.7, 0.2), (5.6, 11.0), (3.3, 0.9)):
            got = tricomi_u(HypergeometricArgs(a, a + 1.0, z))
            assert rel_err(got, z ** (-a)) < 1e-8, (a, z)

    def test_exponential_integral_identity(self):
        # U(1, 1, z) = e^z E1(z), E1 from an independent library routine
        for z in (0.3, 1.0, 4.0):
            got = tricomi_u(HypergeometricArgs(1.0, 1.0, z))
            want = math.exp(z) * sc.exp1(z)
            assert rel_err(got, want) < 1e-8, z

    def test_against_scipy(self):
        # scipy.special.hyperu is only good to ~1e-6 in parts of this grid
        # (spot-checked against a 40-digit reference, where our quadrature
        # route agreed to 1e-15), so the cross-check tolerance is loose.
        for a in (1.1, 3.7, 5.64):
            for b in (0.4, 2.0, 12.88):
                for z in (0.05, 0.6, 3.0, 20.0):
                    got = tricomi_u(HypergeometricArgs(a, b, z))
                    want = sc.hyperu(a, b, z)
                    assert rel_err(got, want) < 1e-6, (a, b, z)

    def test_monotone_decreasing_in_z(self):
        zs = np.linspace(0.05, 12.0, 40)
        vals = [tricomi_u(HypergeometricArgs(2.4, 5.1, z)) for z in zs]
        assert all(u1 > u2 for u1, u2 in zip(vals, vals[1:]))
        assert all(u > 0.0 for u in vals)

    def test_derivative_identity(self):
        # dU/dz = -a U(a+1, b+1, z) vs 5-point central differences
        for a, b, z in ((1.3, 0.7, 2.4), (5.64, 12.88, 3.0), (2.2, 4.0, 1.1)):
            ident = -a * tricomi_u(HypergeometricArgs(a + 1, b + 1, z))
            h = 1e-3 * max(z, 1.0)
            f = [tricomi_u(HypergeometricArgs(a, b, z + k * h))
                 for k in (-2, -1, 1, 2)]
            fd = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
            assert rel_err(fd, ident) < 1e-8, (a, b, z)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tricomi_u(HypergeometricArgs(1.0, 2.0, 0.0))  # diverges at z=0
        with pytest.raises(ValueError):
            tricomi_u(HypergeometricArgs(-1.0, 2.0, 1.0))  # needs a > 0
