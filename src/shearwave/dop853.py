"""Hairer's DOP853 for an autonomous system of two equations.

An explicit Runge-Kutta method of order 8 with embedded error estimators
of orders 5 and 3 (Dormand & Prince; Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, 2nd ed., Springer 1993, section
II.10).  ``dop853`` ports the step loop ``dp86co`` and the initial step
``hinit`` of Hairer's ``dop853.f`` line for line, in scalar ``math``
arithmetic, with the settings that SciPy's ``integrate.ode`` uses for it:
scalar tolerances, safety factor 0.9, step ratios in [0.3, 6], no Lund
stabilization, no maximum step and a stiffness test every 1000 accepted
steps.  Each accepted step therefore equals SciPy's bit for bit.  Two
details follow SciPy's C translation rather than the printed Fortran: a
rejected step retries with ``h / facc1``, and the rounding unit of the
step-size floor is the machine epsilon, not 2.3e-16.  A stop requested at
the initial point ends INTERRUPTED, as in Hairer's code, where SciPy
reports a step-size failure.  Every caller reads the accepted steps, so
the dense output is not ported.
"""

from __future__ import annotations

import math

#: ``idid`` outcomes of ``dop853``, as in Hairer's code.
SUCCESS, INTERRUPTED = 1, 2
TOO_MANY_STEPS, STEP_TOO_SMALL, STIFF = -2, -3, -4

UROUND = 2.220446049250313e-16
SAFE, FAC1, FAC2 = 0.9, 0.3, 6.0
NSTIFF = 1000

# Hairer's coefficients; the nodes c_i are not needed, since the
# right-hand side does not depend on time.
B1 = 5.42937341165687622380535766363e-2
B6 = 4.45031289275240888144113950566e0
B7 = 1.89151789931450038304281599044e0
B8 = -5.8012039600105847814672114227e0
B9 = 3.1116436695781989440891606237e-1
B10 = -1.52160949662516078556178806805e-1
B11 = 2.01365400804030348374776537501e-1
B12 = 4.47106157277725905176885569043e-2

BHH1 = 0.244094488188976377952755905512e+00
BHH2 = 0.733846688281611857341361741547e+00
BHH3 = 0.220588235294117647058823529412e-01

ER1 = 0.1312004499419488073250102996e-01
ER6 = -0.1225156446376204440720569753e+01
ER7 = -0.4957589496572501915214079952e+00
ER8 = 0.1664377182454986536961530415e+01
ER9 = -0.3503288487499736816886487290e+00
ER10 = 0.3341791187130174790297318841e+00
ER11 = 0.8192320648511571246570742613e-01
ER12 = -0.2235530786388629525884427845e-01

A21 = 5.26001519587677318785587544488e-2
A31 = 1.97250569845378994544595329183e-2
A32 = 5.91751709536136983633785987549e-2
A41 = 2.95875854768068491816892993775e-2
A43 = 8.87627564304205475450678981324e-2
A51 = 2.41365134159266685502369798665e-1
A53 = -8.84549479328286085344864962717e-1
A54 = 9.24834003261792003115737966543e-1
A61 = 3.7037037037037037037037037037e-2
A64 = 1.70828608729473871279604482173e-1
A65 = 1.25467687566822425016691814123e-1
A71 = 3.7109375e-2
A74 = 1.70252211019544039314978060272e-1
A75 = 6.02165389804559606850219397283e-2
A76 = -1.7578125e-2
A81 = 3.70920001185047927108779319836e-2
A84 = 1.70383925712239993810214054705e-1
A85 = 1.07262030446373284651809199168e-1
A86 = -1.53194377486244017527936158236e-2
A87 = 8.27378916381402288758473766002e-3
A91 = 6.24110958716075717114429577812e-1
A94 = -3.36089262944694129406857109825e0
A95 = -8.68219346841726006818189891453e-1
A96 = 2.75920996994467083049415600797e1
A97 = 2.01540675504778934086186788979e1
A98 = -4.34898841810699588477366255144e1
A101 = 4.77662536438264365890433908527e-1
A104 = -2.48811461997166764192642586468e0
A105 = -5.90290826836842996371446475743e-1
A106 = 2.12300514481811942347288949897e1
A107 = 1.52792336328824235832596922938e1
A108 = -3.32882109689848629194453265587e1
A109 = -2.03312017085086261358222928593e-2
A111 = -9.3714243008598732571704021658e-1
A114 = 5.18637242884406370830023853209e0
A115 = 1.09143734899672957818500254654e0
A116 = -8.14978701074692612513997267357e0
A117 = -1.85200656599969598641566180701e1
A118 = 2.27394870993505042818970056734e1
A119 = 2.49360555267965238987089396762e0
A1110 = -3.0467644718982195003823669022e0
A121 = 2.27331014751653820792359768449e0
A124 = -1.05344954667372501984066689879e1
A125 = -2.00087205822486249909675718444e0
A126 = -1.79589318631187989172765950534e1
A127 = 2.79488845294199600508499808837e1
A128 = -2.85899827713502369474065508674e0
A129 = -8.87285693353062954433549289258e0
A1210 = 1.23605671757943030647266201528e1
A1211 = 6.43392746015763530355970484046e-1


def hinit(fcn, y, f0, posneg, hmax, rtol, atol):
    """Initial step: h**8 * max(|f0|, |y''|) = 0.01 in the error norm."""
    dnf = dny = 0.0
    for yi, fi in zip(y, f0):
        sk = atol + rtol * abs(yi)
        q = fi / sk
        dnf += q * q
        q = yi / sk
        dny += q * q
    if dnf <= 1e-10 or dny <= 1e-10:
        h = 1.0e-6
    else:
        h = math.sqrt(dny / dnf) * 0.01
    h = math.copysign(min(h, hmax), posneg)
    if h == 0.0:
        return h  # f0's norm overflowed; C's der2 / 0 ends in h = 0 as well
    # An explicit Euler step estimates the second derivative.
    f1 = fcn(y[0] + h * f0[0], y[1] + h * f0[1])
    der2 = 0.0
    for yi, a, b in zip(y, f0, f1):
        q = (b - a) / (atol + rtol * abs(yi))
        der2 += q * q
    der2 = math.sqrt(der2) / h
    der12 = max(abs(der2), math.sqrt(dnf))
    if der12 <= 1e-15:
        h1 = max(1.0e-6, abs(h) * 1.0e-3)
    else:
        h1 = (0.01 / der12) ** (1.0 / 8)
    return math.copysign(min(100 * abs(h), h1, hmax), posneg)


def dop853(fcn, x, y, xend, rtol, atol, solout, nmax=10 ** 9):
    """Integrate y' = fcn(*y) for the pair ``y`` from ``x`` towards ``xend``.

    ``solout(xold, x, y)`` is called at the start and after every accepted
    step; a true return stops the integration (INTERRUPTED).  Returns
    ``idid``: SUCCESS, INTERRUPTED, TOO_MANY_STEPS, STEP_TOO_SMALL or STIFF.
    """
    facc1, facc2 = 1.0 / FAC1, 1.0 / FAC2
    posneg = math.copysign(1.0, xend - x)
    hmax = abs(xend - x)
    y0, y1 = y
    k10, k11 = fcn(y0, y1)
    h = hinit(fcn, (y0, y1), (k10, k11), posneg, hmax, rtol, atol)
    last = reject = False
    hlamb, iasti, nonsti, nstep, naccpt = 0.0, 0, 0, 0, 0
    if solout(x, x, (y0, y1)):
        return INTERRUPTED
    while True:
        if nstep > nmax:
            return TOO_MANY_STEPS
        if 0.1 * abs(h) <= abs(x) * UROUND:
            return STEP_TOO_SMALL
        if (x + 1.01 * h - xend) * posneg > 0.0:
            h = xend - x
            last = True
        nstep += 1
        # The twelve stages; stage k of component i is ki0 / ki1.
        k20, k21 = fcn(y0 + h * A21 * k10, y1 + h * A21 * k11)
        k30, k31 = fcn(y0 + h * (A31 * k10 + A32 * k20),
                       y1 + h * (A31 * k11 + A32 * k21))
        k40, k41 = fcn(y0 + h * (A41 * k10 + A43 * k30),
                       y1 + h * (A41 * k11 + A43 * k31))
        k50, k51 = fcn(y0 + h * (A51 * k10 + A53 * k30 + A54 * k40),
                       y1 + h * (A51 * k11 + A53 * k31 + A54 * k41))
        k60, k61 = fcn(y0 + h * (A61 * k10 + A64 * k40 + A65 * k50),
                       y1 + h * (A61 * k11 + A64 * k41 + A65 * k51))
        k70, k71 = fcn(y0 + h * (A71 * k10 + A74 * k40 + A75 * k50 + A76 * k60),
                       y1 + h * (A71 * k11 + A74 * k41 + A75 * k51 + A76 * k61))
        k80, k81 = fcn(y0 + h * (A81 * k10 + A84 * k40 + A85 * k50 + A86 * k60
                                 + A87 * k70),
                       y1 + h * (A81 * k11 + A84 * k41 + A85 * k51 + A86 * k61
                                 + A87 * k71))
        k90, k91 = fcn(y0 + h * (A91 * k10 + A94 * k40 + A95 * k50 + A96 * k60
                                 + A97 * k70 + A98 * k80),
                       y1 + h * (A91 * k11 + A94 * k41 + A95 * k51 + A96 * k61
                                 + A97 * k71 + A98 * k81))
        ka0, ka1 = fcn(y0 + h * (A101 * k10 + A104 * k40 + A105 * k50 + A106 * k60
                                 + A107 * k70 + A108 * k80 + A109 * k90),
                       y1 + h * (A101 * k11 + A104 * k41 + A105 * k51 + A106 * k61
                                 + A107 * k71 + A108 * k81 + A109 * k91))
        kb0, kb1 = fcn(y0 + h * (A111 * k10 + A114 * k40 + A115 * k50 + A116 * k60
                                 + A117 * k70 + A118 * k80 + A119 * k90
                                 + A1110 * ka0),
                       y1 + h * (A111 * k11 + A114 * k41 + A115 * k51 + A116 * k61
                                 + A117 * k71 + A118 * k81 + A119 * k91
                                 + A1110 * ka1))
        xph = x + h
        s0 = y0 + h * (A121 * k10 + A124 * k40 + A125 * k50 + A126 * k60
                       + A127 * k70 + A128 * k80 + A129 * k90 + A1210 * ka0
                       + A1211 * kb0)
        s1 = y1 + h * (A121 * k11 + A124 * k41 + A125 * k51 + A126 * k61
                       + A127 * k71 + A128 * k81 + A129 * k91 + A1210 * ka1
                       + A1211 * kb1)
        kc0, kc1 = fcn(s0, s1)
        b0 = (B1 * k10 + B6 * k60 + B7 * k70 + B8 * k80 + B9 * k90 + B10 * ka0
              + B11 * kb0 + B12 * kc0)
        b1 = (B1 * k11 + B6 * k61 + B7 * k71 + B8 * k81 + B9 * k91 + B10 * ka1
              + B11 * kb1 + B12 * kc1)
        n0, n1 = y0 + h * b0, y1 + h * b1
        # Error estimation.
        sk = atol + rtol * max(abs(y0), abs(n0))
        q = (b0 - BHH1 * k10 - BHH2 * k90 - BHH3 * kc0) / sk
        err2 = q * q
        q = (ER1 * k10 + ER6 * k60 + ER7 * k70 + ER8 * k80 + ER9 * k90
             + ER10 * ka0 + ER11 * kb0 + ER12 * kc0) / sk
        err = q * q
        sk = atol + rtol * max(abs(y1), abs(n1))
        q = (b1 - BHH1 * k11 - BHH2 * k91 - BHH3 * kc1) / sk
        err2 += q * q
        q = (ER1 * k11 + ER6 * k61 + ER7 * k71 + ER8 * k81 + ER9 * k91
             + ER10 * ka1 + ER11 * kb1 + ER12 * kc1) / sk
        err += q * q
        deno = err + 0.01 * err2
        if deno <= 0.0:
            deno = 1.0
        err = abs(h) * err * math.sqrt(1.0 / (2 * deno))
        if not err <= 1.0:
            # Step rejected.
            h /= facc1
            reject = True
            last = False
            continue
        # Step accepted; the next step satisfies FAC1 <= hnew/h <= FAC2.
        hnew = h / max(facc2, min(facc1, err ** (1.0 / 8.0) / SAFE))
        naccpt += 1
        f0, f1 = fcn(n0, n1)
        # Stiffness detection.
        if naccpt % NSTIFF == 0 or iasti > 0:
            q = f0 - kc0
            stnum = q * q
            q = f1 - kc1
            stnum += q * q
            q = n0 - s0
            stden = q * q
            q = n1 - s1
            stden += q * q
            if stden > 0.0:
                hlamb = abs(h) * math.sqrt(stnum / stden)
            if hlamb > 6.1:
                nonsti = 0
                iasti += 1
                if iasti == 15:
                    return STIFF
            else:
                nonsti += 1
                if nonsti == 6:
                    iasti = 0
        k10, k11 = f0, f1
        y0, y1 = n0, n1
        xold, x = x, xph
        if solout(xold, x, (y0, y1)):
            return INTERRUPTED
        if last:
            return SUCCESS
        if abs(hnew) > hmax:
            hnew = posneg * hmax
        if reject:
            hnew = posneg * min(abs(hnew), abs(h))
        reject = False
        h = hnew

