"""Independent reference implementations used only by the test suite.

The site-by-site systems below are hand-expanded literal transcriptions
of the coupled equations for n = 3 and for M2; they share no code with
the package kernels.  ``zn_transport_oracle`` writes the Z_n transport at
any n in the paper's form, with ``np.roll`` for the shifts.  The Moebius oracle goes through scipy's generic
matrix exponential instead of the closed-form branches, and the
transport-on-a-line oracle inverts the characteristic map by Newton
iteration.  ``line_chart_oracle`` is the per-point SVG writer that
``svgplot.line_chart`` replaced, kept as its byte reference: verbatim but for
the legend, which lists the series whose rows fit on the canvas and, when
some do not, counts them in its last row.
``dopri_attempt_oracle`` is one Dormand-Prince attempt written from the
published tableau in exact fractions, stage by stage.  ``zn_sites_oracle``
is the site-by-site Z_n form that ``connection._zn_kernels`` compiled
away, kept verbatim (it calls the package's four site equations once per
site) as the byte reference of the compiled kernel; ``zn_system`` calls
them once each on gathered sample arrays and is the byte reference of
``connection.zn_coupled_rhs``, the array kernel.  ``right_multiply_form``,
``divergence_pairing`` and ``bloch_point`` are element-level forms of the
calculus, the divergence condition and the M2 Bloch coordinates that only
the tests use.  ``m2_kflow_oracle``
and ``zn2_transport_oracle`` are closed forms, through scipy's ``expm``, of
the M2 K-flow and of the Z_2 transport, for any initial data.
``pullback_check_oracle`` is the per-sample loop of
``classical.pullback_geodesic_check``, on Python floats and ``math``'s sin
and cos, before the check went to coordinate columns; it keeps its
``max(worst, abs(r))``, so a nan residual does not show in it.
``burgers_rate`` is the burgers right-hand side through the gathers of
``spatial_derivative``, the byte reference of the buffered kernel.
``call_stage`` is the stage of any callable ``g`` on lists, one call per
stage; ``per_call_rk4`` (``flow._compile_rk4`` of it) is the byte
reference of the package's fused rk4 runs, and ``call_system`` makes a
compiled system of any such f, to step it through ``integrate``.
"""

import functools
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import scipy.linalg

from ncgflow import Mat2Element, OneForm, apply_vf, d, flow, spatial_derivative, state_eval
from ncgflow.algebra import _shift_indices
from ncgflow.classical import _add_christoffel_term
from ncgflow.connection import _zn_beta, _zn_dkm, _zn_dkp, _zn_dm
from ncgflow.svgplot import _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _PALETTE, _expand, _fmt


def zn3_flow_oracle(kp, km):
    kp0, kp1, kp2 = kp
    km0, km1, km2 = km
    dkp1 = kp1 * (kp0 + km2 - kp2 - km1) / 2
    dkp2 = kp2 * (kp1 + km0 - kp0 - km2) / 2
    dkp0 = kp0 * (kp2 + km1 - kp1 - km0) / 2
    dkm1 = km1 * (kp0 + km2 - kp1 - km0) / 2
    dkm2 = km2 * (kp1 + km0 - kp2 - km1) / 2
    dkm0 = km0 * (kp2 + km1 - kp0 - km2) / 2
    return np.array([dkp0, dkp1, dkp2]), np.array([dkm0, dkm1, dkm2])


def zn3_transport_oracle(kp, km, m):
    kp0, kp1, kp2 = kp
    km0, km1, km2 = km
    m0, m1, m2 = m
    dm0 = -m0 * (-kp0 + kp1 - km0 + km2) / 2 - kp0 * (m0 - m2) - km0 * (m0 - m1)
    dm1 = -m1 * (-kp1 + kp2 - km1 + km0) / 2 - kp1 * (m1 - m0) - km1 * (m1 - m2)
    dm2 = -m2 * (-kp2 + kp0 - km2 + km1) / 2 - kp2 * (m2 - m1) - km2 * (m2 - m0)
    return np.array([dm0, dm1, dm2])


def zn_transport_oracle(kp, km, m):
    """``dm = -m b - K_+ (m - R_{-1}m) - K_- (m - R_{+1}m)`` with ``b = (R_{+1}K_+ - K_+ + R_{-1}K_- - K_-) / 2``.

    ``(R_{+1}f)(i) = f(i + 1)`` is ``np.roll(f, -1)``.
    """
    kp, km, m = (np.asarray(a, dtype=complex) for a in (kp, km, m))
    b = (np.roll(kp, -1) - kp + np.roll(km, 1) - km) / 2
    return -m * b - kp * (m - np.roll(m, 1)) - km * (m - np.roll(m, -1))


def zn_sites_oracle(kp: list, km: list, m: list) -> list:
    """``_zn_system`` site by site on lists of Python complex scalars.

    Returns the rates of K_+, K_- and m as one flat list, in that order.
    """
    beta = list(map(_zn_beta, kp, kp[1:] + kp[:1], km, km[-1:] + km[:-1]))
    return [
        *map(_zn_dkp, kp, beta, beta[-1:] + beta[:-1]),
        *map(_zn_dkm, km, beta, beta[1:] + beta[:1]),
        *map(_zn_dm, kp, km, m, beta, m[1:] + m[:1], m[-1:] + m[:-1]),
    ]


def zn_system(kp, km, m):
    """Coupled Z_n right-hand side on the sample arrays of K_+, K_- and m, as three arrays."""
    n = kp.shape[0]
    up, down = _shift_indices(n, 1), _shift_indices(n, -1)
    beta = _zn_beta(kp, kp[up], km, km[down])
    return _zn_dkp(kp, beta, beta[down]), _zn_dkm(km, beta, beta[up]), _zn_dm(kp, km, m, beta, m[up], m[down])


def right_multiply_form(xi, a):
    """``xi . a``; coefficients sit on the right of the generators, so this is plain multiplication."""
    return OneForm(xi.c1 * a, xi.c2 * a)


def divergence_pairing(field, b, a):
    """integral(b*a + K(da) + a*b^*); zero for every a iff (b, K) satisfies the divergence condition."""
    return (b * a + apply_vf(field, d(a)) + a * b.star()).integral()


_PAULI = (Mat2Element([[-1.0, 0.0], [0.0, 1.0]]), Mat2Element([[0.0, 1.0], [1.0, 0.0]]),
          Mat2Element([[0.0, -1.0j], [1.0j, 0.0]]))


def bloch_point(m):
    """Bloch coordinates ``(s, x, y) = (phi(diag(-1, 1)), phi(X), phi(Y)) / 2`` of the state of m, complex."""
    return np.array([0.5 * state_eval(m, obs) for obs in _PAULI])


def m2_flow_oracle(K1, K2):
    a1, b1, c1, d1 = K1[0, 0], K1[0, 1], K1[1, 0], K1[1, 1]
    a2, b2, c2, d2 = K2[0, 0], K2[0, 1], K2[1, 0], K2[1, 1]
    dK1 = np.array(
        [
            [(-c1 * (a1 + d1) + b1 * (a2 + d2)) / 2, (a1 ** 2 - d1 ** 2) / 2],
            [((-a1 + d1) * (a2 + d2)) / 2, (c1 * (a1 + d1) - b1 * (a2 + d2)) / 2],
        ]
    )
    dK2 = np.array(
        [
            [(-c2 * (a1 + d1) + b2 * (a2 + d2)) / 2, ((a1 + d1) * (a2 - d2)) / 2],
            [(-(a2 ** 2) + d2 ** 2) / 2, (c2 * (a1 + d1) - b2 * (a2 + d2)) / 2],
        ]
    )
    return dK1, dK2


def m2_kflow_oracle(K1, K2, t):
    """``K_i(t) = U^-1 K_i(0) U`` with ``U = expm(tG)`` and ``G = [[0, tr K1], [tr K2, 0]] / 2``, for any data.

    The scalar diagonal of B drops out of ``[K_i, B]``, and its off-diagonal
    entries tr K1 / 2 and tr K2 / 2 are conserved, so each K_i is conjugated
    by the flow of the constant matrix G.
    """
    K1, K2 = np.asarray(K1, dtype=complex), np.asarray(K2, dtype=complex)
    U = scipy.linalg.expm(t * 0.5 * np.array([[0, np.trace(K1)], [np.trace(K2), 0]]))
    return np.linalg.solve(U, K1 @ U), np.linalg.solve(U, K2 @ U)


def zn2_transport_oracle(kp, km, m, t):
    """``m(t) = expm(tC) m(0)`` on Z_2, with ``C = [[-beta, K_+(0) + K_-(0)], [K_+(1) + K_-(1), -beta]]``.

    At n = 2 both neighbours of a site are the other site, so both sites have
    ``beta = (K_+(0) + K_+(1) + K_-(0) + K_-(1)) / 2``, the K-flow
    ``dK_+(i) = K_+(i) (beta(i - 1) - beta(i))`` is static and the transport
    ``dm(i) = K_+(i) m(i - 1) + K_-(i) m(i + 1) - beta m(i)`` has constant coefficients.
    """
    kp, km, m = (np.asarray(a, dtype=complex) for a in (kp, km, m))
    beta = (kp[0] + kp[1] + km[0] + km[1]) / 2
    return scipy.linalg.expm(t * np.array([[-beta, kp[0] + km[0]], [kp[1] + km[1], -beta]])) @ m


def m2_transport_oracle(K1, K2, M):
    a1, b1, c1, d1 = K1[0, 0], K1[0, 1], K1[1, 0], K1[1, 1]
    a2, b2, c2, d2 = K2[0, 0], K2[0, 1], K2[1, 0], K2[1, 1]
    ma, mb, mc, md = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    dma = -(c1 * ma - 2 * a2 * mb + a1 * mc + d1 * mc + b2 * (ma - 2 * md)) / 2
    dmb = -(b2 * mb + c1 * mb - 2 * b1 * mc + d1 * md + a1 * (-2 * ma + md)) / 2
    dmc = -(a2 * ma - 2 * c2 * mb + b2 * mc + c1 * mc + d2 * (ma - 2 * md)) / 2
    dmd = -(a2 * mb + d2 * mb - 2 * d1 * mc + b2 * md + c1 * (-2 * ma + md)) / 2
    return np.array([[dma, dmb], [dmc, dmd]])


# Dormand & Prince, "A family of embedded Runge-Kutta formulae", J. Comput. Appl.
# Math. 6 (1980): the nodes c, the matrix a and the 5th- and 4th-order weights.
_DOPRI_C = (F(0), F(1, 5), F(3, 10), F(4, 5), F(8, 9), F(1), F(1))
_DOPRI_A = (
    (),
    (F(1, 5),),
    (F(3, 40), F(9, 40)),
    (F(44, 45), F(-56, 15), F(32, 9)),
    (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
    (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)),
    (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)),
)
_DOPRI_B5 = _DOPRI_A[6] + (F(0),)
_DOPRI_B4 = (F(5179, 57600), F(0), F(7571, 16695), F(393, 640), F(-92097, 339200), F(187, 2100), F(1, 40))


def dopri_attempt_oracle(f, t, y, h):
    """One Dormand-Prince attempt of size h from ``(t, y)`` for ``dy/dt = f(t, y)`` on float64 vectors.

    Each stage input is ``y + h * sum_j a_ij k_j``; returns the 5th-order
    solution and the error estimate ``h * sum_j (b5_j - b4_j) k_j``.
    """
    assert all(sum(row) == c for row, c in zip(_DOPRI_A, _DOPRI_C)) and sum(_DOPRI_B4) == 1
    ks = []
    for c, row in zip(_DOPRI_C, _DOPRI_A):
        stage = y + h * sum((float(a) * k for a, k in zip(row, ks)), np.zeros_like(y))
        ks.append(np.asarray(f(t + float(c) * h, stage), dtype=np.float64))
    err = h * sum(float(b5 - b4) * k for b5, b4, k in zip(_DOPRI_B5, _DOPRI_B4, ks))
    return stage, err


def mobius_expm_oracle(z0, q1, q2, t):
    """Time-t image of z0 computed with scipy's expm; returns (num, den)."""
    mat = scipy.linalg.expm(t * np.array([[0.0, q2], [q1, 0.0]], dtype=complex))
    num, den = (1.0, 0.0) if z0 is None else (complex(z0), 1.0)
    return mat[0, 0] * num + mat[0, 1] * den, mat[1, 0] * num + mat[1, 1] * den


def _sine_foot(x, t, eps, newton_iters):
    """The foot x0 of the characteristic x0 + eps sin(x0) t = x through (x, t), by Newton from x0 = x.

    The equation is strictly monotone in x0 for eps * t < 1, so Newton
    converges.
    """
    x = np.asarray(x, dtype=float)
    assert eps * t < 1.0, "post-shock evaluation requested"
    x0 = x.copy()
    for _ in range(newton_iters):
        f = x0 + eps * np.sin(x0) * t - x
        step = f / (1.0 + eps * np.cos(x0) * t)
        x0 -= step
        if np.max(np.abs(step)) < 1e-14:
            break
    return x0


def transport_characteristics_sine(x, t, eps, newton_iters=60):
    """Exact pre-shock solution of dK/dt = -K K' for K(x, 0) = eps sin x.

    K is constant along the characteristic x0 + K0(x0) t, so the value at
    (x, t) is eps sin(x0) where x0 solves x0 + eps sin(x0) t = x
    (``_sine_foot``).
    """
    return eps * np.sin(_sine_foot(x, t, eps, newton_iters))


def density_characteristics_sine(x, t, eps, rho0, newton_iters=60):
    """Exact pre-shock density of rho_t + (K rho)_x = 0, carried by the K of ``transport_characteristics_sine``.

    The mass between two characteristics stays between them, so the
    density at (x, t) is rho0(x0) / (dx/dx0), with x0 the foot that
    ``transport_characteristics_sine`` finds and dx/dx0 = 1 + eps cos(x0) t
    the stretch of the characteristics x0 + eps sin(x0) t.  ``rho0`` is the
    initial density, a function of an array of points.
    """
    x0 = _sine_foot(x, t, eps, newton_iters)
    return rho0(x0) / (1.0 + eps * np.cos(x0) * t)


def great_circle(inclination):
    """Exact unit-speed sphere geodesic through (pi/2, 0), tilted by the given angle.

    Valid while the trajectory stays away from the atan2 branch cut
    (|t| < pi); returns (theta, phi) arrays for array t.
    """

    def curve(t):
        t = np.asarray(t, dtype=float)
        theta = np.arccos(np.sin(inclination) * np.sin(t))
        phi = np.arctan2(np.cos(inclination) * np.sin(t), np.cos(t))
        return np.column_stack([theta, phi])

    return curve


def great_circle_initial_velocity(inclination):
    return np.array([-np.sin(inclination), np.cos(inclination)])


def line_chart_oracle(
    path,
    series,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 640,
    height: int = 420,
    equal_aspect: bool = False,
) -> None:
    """Write a line chart; ``series`` is a list of (label, xs, ys)."""
    cleaned = []
    for label, xs, ys in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        cleaned.append((str(label), pts))
    all_pts = [p for _, pts in cleaned for p in pts]
    if not all_pts:
        raise ValueError("no finite data to plot")

    xmin, xmax = _expand(min(p[0] for p in all_pts), max(p[0] for p in all_pts))
    ymin, ymax = _expand(min(p[1] for p in all_pts), max(p[1] for p in all_pts))

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B
    if equal_aspect:
        x_scale = (xmax - xmin) / plot_w
        y_scale = (ymax - ymin) / plot_h
        scale = max(x_scale, y_scale)
        xc, yc = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
        xmin, xmax = xc - 0.5 * scale * plot_w, xc + 0.5 * scale * plot_w
        ymin, ymax = yc - 0.5 * scale * plot_h, yc + 0.5 * scale * plot_h

    def sx(v: float) -> float:
        return _MARGIN_L + (v - xmin) / (xmax - xmin) * plot_w

    def sy(v: float) -> float:
        return height - _MARGIN_B - (v - ymin) / (ymax - ymin) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]

    for i in range(5):
        frac = i / 4.0
        xv = xmin + frac * (xmax - xmin)
        yv = ymin + frac * (ymax - ymin)
        px = _MARGIN_L + frac * plot_w
        py = height - _MARGIN_B - frac * plot_h
        out.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T}" x2="{px:.2f}" y2="{height - _MARGIN_B}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.2f}" x2="{width - _MARGIN_R}" y2="{py:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{height - _MARGIN_B + 16}" font-size="11" '
            f'text-anchor="middle" fill="#222222">{_fmt(xv)}</text>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 6}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end" fill="#222222">{_fmt(yv)}</text>'
        )

    if title:
        out.append(
            f'<text x="{width / 2:.0f}" y="18" font-size="13" text-anchor="middle" '
            f'fill="#000000">{title}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{width / 2:.0f}" y="{height - 8}" font-size="12" '
            f'text-anchor="middle" fill="#000000">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="14" y="{height / 2:.0f}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 14 {height / 2:.0f})" fill="#000000">{ylabel}</text>'
        )

    lx = width - _MARGIN_R - 150
    fits = [idx for idx in range(len(cleaned)) if _MARGIN_T + 14 + 14 * idx <= height]  # baselines on the canvas
    shown = fits if len(fits) == len(cleaned) else fits[:-1]  # else the last row that fits counts the rest
    for idx, (label, pts) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.4"/>'
            )
        if idx in shown:
            ly = _MARGIN_T + 14 + 14 * idx
            out.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            out.append(
                f'<text x="{lx + 22}" y="{ly}" font-size="11" fill="#222222">{label}</text>'
            )
    if len(shown) < len(cleaned):
        out.append(f'<text x="{lx + 22}" y="{_MARGIN_T + 14 + 14 * len(shown)}" font-size="11" '
                   f'fill="#222222">+ {len(cleaned) - len(shown)} more series</text>')

    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def pullback_check_oracle(times, samples, provider) -> float:
    """The geodesic residual of uniformly sampled points, one sample at a time (see the module docstring)."""
    samples = np.asarray(samples, dtype=np.float64)
    dt = times[1] - times[0]
    vel = (samples[2:] - samples[:-2]) / (2.0 * dt)
    acc = (samples[2:] - 2.0 * samples[1:-1] + samples[:-2]) / (dt * dt)
    worst = 0.0
    for x, v, a in zip(samples[1:-1].tolist(), vel.tolist(), acc.tolist()):
        for r in _add_christoffel_term(a, provider.symbols(x), v):
            worst = max(worst, abs(r))
    return worst


def burgers_rate(v, dx, stencil):
    """``dK/dt = -K K'`` on grid samples, through the gathers of ``spatial_derivative``: the burgers reference."""
    return -v * spatial_derivative(v, dx, stencil)


def call_stage(t: str, inputs: list, rates: list) -> list:
    """The stage of a callable ``g``: one call, unpacked into the rates (ValueError unless it returns as many)."""
    return [f"{', '.join(rates)}, = g({t}, [{', '.join(inputs)}])"]


@functools.lru_cache(maxsize=32)
def per_call_rk4(size: int, entry: type):
    """``run(g, f, y, h, n_steps, stride, out)``: rk4 on any callable g on lists of ``size`` entries, one call per stage.

    It is a compiled run on entries of type ``entry``, so f goes unused and
    the initial entries are read from row 0 of the float64 block ``out``.
    """
    return flow._compile_rk4(size, call_stage, ("g",), entry)


def call_system(f, size: int, entry: type):
    """f on lists of ``size`` entries of type ``entry`` as a compiled system with f bound; its rk4 is the per-call run."""
    return flow._stage_kernels(size, call_stage, ("g",), entry).bind(f)
