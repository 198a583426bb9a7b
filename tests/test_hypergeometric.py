"""Tests for the confluent hypergeometric kernel.

Expected values marked "frozen" were computed once with mpmath at 40
significant digits and pasted here verbatim; they are independent of
the implementation under test.
"""
import math
import warnings

import numpy as np
import pytest
import scipy.special as sc

from entrysolve import AccuracyError, HypergeometricArgs, kummer_m, tricomi_u
from entrysolve.hypergeometric import _m_vec, _u_vec

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

# frozen mpmath references in the small-a, small-z region (a < 3, z < 0.75):
# a grid over a and b, then the (b, 2b + c) and (b + 1, 2b + c + 1)
# parameter pairs of logistic(0.05, 0.25, 0.2) at p = 0.95, 0.98 and 1,
# and of logistic(0.06, 0.3, 0.25) at p = 1 (r = 0.1, lambda = 1)
U_SMALL_ORACLES = {
    (0.05, 0.4, 0.0001): 1.0746456501785908654,
    (0.05, 0.4, 0.02): 1.0597894315017370312,
    (0.05, 0.4, 0.74): 0.9896952288593027196,
    (0.05, 2.0, 0.0001): 515.05044442654613055,
    (0.05, 2.0, 0.02): 3.7516737549642608579,
    (0.05, 2.0, 0.74): 1.0789185139175232646,
    (0.05, 12.88, 0.0001): 5.067661880881111729e+53,
    (0.05, 12.88, 0.02): 2.3876419739458626229e+26,
    (0.05, 12.88, 0.74): 1.2273024616107709172e+8,
    (0.7, 0.4, 0.0001): 1.6482724746810976339,
    (0.7, 0.4, 0.02): 1.4412681818859500048,
    (0.7, 0.4, 0.74): 0.70369585489127894778,
    (0.7, 2.0, 0.0001): 7706.2068440692562566,
    (0.7, 2.0, 0.02): 39.677777643001572686,
    (0.7, 2.0, 0.74): 1.4687709450931490959,
    (0.7, 12.88, 0.0001): 7.6011566840477386263e+54,
    (0.7, 12.88, 0.02): 3.5770445505378961489e+27,
    (0.7, 12.88, 0.74): 1.7577793128465021235e+9,
    (2.99, 0.4, 0.0001): 0.398084723638032164,
    (2.99, 0.4, 0.02): 0.28097702259181249931,
    (2.99, 0.4, 0.74): 0.039485871535007703694,
    (2.99, 2.0, 0.0001): 5038.0802885601767073,
    (2.99, 2.0, 0.02): 22.258484505893236881,
    (2.99, 2.0, 0.74): 0.18267561386997709023,
    (2.99, 12.88, 0.0001): 4.9788927152627353454e+54,
    (2.99, 12.88, 0.02): 2.3332260723006932477e+27,
    (2.99, 12.88, 0.74): 9.8029541039721771597e+8,
    (1.9113344387, 5.4226688775, 0.0001): 5.3111722583190314759e+18,
    (1.9113344387, 5.4226688775, 0.01): 7.6384560734325057144e+9,
    (1.9113344387, 5.4226688775, 0.2): 15445.293990336426719,
    (1.9113344387, 5.4226688775, 0.74): 68.817603267885199704,
    (2.9113344387, 6.4226688775, 0.0001): 1.2289406855706669971e+23,
    (2.9113344387, 6.4226688775, 0.01): 1.7645461194427468379e+12,
    (2.9113344387, 6.4226688775, 0.2): 172905.22249358635805,
    (2.9113344387, 6.4226688775, 0.74): 191.32987686614081261,
    (1.6824227602, 4.9648455203, 0.0001): 4.5878882024908120331e+16,
    (1.6824227602, 4.9648455203, 0.01): 5.4353774739109619855e+8,
    (1.6824227602, 4.9648455203, 0.2): 4360.4373803723396891,
    (1.6824227602, 4.9648455203, 0.74): 35.889163053693114983,
    (2.6824227602, 5.9648455203, 0.0001): 1.0811738424485523008e+21,
    (2.6824227602, 5.9648455203, 0.01): 1.2784324334749054019e+11,
    (2.6824227602, 5.9648455203, 0.2): 49436.33896198431054,
    (2.6824227602, 5.9648455203, 0.74): 99.717002570390170709,
    (1.5138357147, 4.6276714294, 0.0001): 1.4022130910486392446e+15,
    (1.5138357147, 4.6276714294, 0.01): 7.8510510335499908363e+7,
    (1.5138357147, 4.6276714294, 0.2): 1740.4312478693471553,
    (1.5138357147, 4.6276714294, 0.74): 22.57385034851460394,
    (2.5138357147, 5.6276714294, 0.0001): 3.3601106903262065269e+19,
    (2.5138357147, 5.6276714294, 0.01): 1.8772150724672010773e+10,
    (2.5138357147, 5.6276714294, 0.2): 19954.731243531842468,
    (2.5138357147, 5.6276714294, 0.74): 62.637883543514409762,
    (1.3333333333, 4.0, 0.0001): 2.2398796907421476149e+12,
    (1.3333333333, 4.0, 0.01): 2.2584189900637812661e+6,
    (1.3333333333, 4.0, 0.2): 329.55110274458904167,
    (1.3333333333, 4.0, 0.74): 9.6652620413333826867,
    (2.3333333333, 5.0, 0.0001): 5.0395893141500569392e+16,
    (2.3333333333, 5.0, 0.01): 5.0673521201790085418e+8,
    (2.3333333333, 5.0, 0.2): 3510.9640402220566274,
    (2.3333333333, 5.0, 0.74): 24.517466444389755623,
    # z far below the models' range, where panels of equal width in ln s
    # are too wide
    (1.5, 0.4, 1e-200): 1.4230409835836093985,
    (0.7, 2.0, 1e-100): 7.703831838665659417e+99,
    (2.5, 1.5, 1e-250): 1.3333333333333332973e+125,
}

# frozen mpmath references with b < a + 1, where (z+s)^(b-a-1) is singular
# at s = -z and one generalized Laguerre sum is off by up to 2e-2 here
U_NEGATIVE_POWER_ORACLES = {
    (3.7, 0.4, 0.05): 0.08506476884185864047,
    (3.0, -2.5, 0.76): 0.0058257516955521085777,
    (8.0, -2.5, 1.0): 3.7725301300100834922e-8,
    (5.64, 2.0, 0.3): 0.012119952210539584342,
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

    def test_split_rule_oracles(self):
        for (a, b, z), want in {**U_SMALL_ORACLES, **U_NEGATIVE_POWER_ORACLES}.items():
            got = tricomi_u(HypergeometricArgs(a, b, z))
            assert rel_err(got, want) < 1e-12, (a, b, z)

    def test_scalar_matches_vector_bitwise(self):
        # the arrays cross every edge between the Laguerre sum and the
        # split, and span more than two blocks of the Laguerre sum
        zs = np.concatenate(([1e-4, 0.3, 0.7499, 0.75, 0.7501, 2.0, 30.0],
                             np.geomspace(31.0, 300.0, 140)))
        for a in (2.5, 2.999, 3.0, 3.5):
            for b in (0.4, 4.0, 12.88):
                vec = _u_vec(a, b, zs)
                for z, v in zip(zs, vec):
                    assert tricomi_u(HypergeometricArgs(a, b, float(z))) == v, (a, b, z)

    def test_overflow_raises_accuracy_error(self):
        # U(1, 400, 1e-3) ~ gamma(399) 1e1197 overflows; no numpy warning
        # may escape on the way to the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError, match=r"a=1\.0, b=400\.0, z=0\.001\)"):
                tricomi_u(HypergeometricArgs(1.0, 400.0, 1e-3))
            with pytest.raises(AccuracyError, match=r"a=1\.0, b=400\.0, z=0\.001\)"):
                _u_vec(1.0, 400.0, np.array([1e-3, 0.5]))
            # the a >= 3 rule too
            with pytest.raises(AccuracyError, match=r"a=3\.5, b=400\.0, z=0\.001\)"):
                _u_vec(3.5, 400.0, np.array([1e-3]))
