"""Brute-force reference implementations: naive loops, no shared machinery.

These exist solely to cross-check the vectorized evaluators; they take flat
value arrays and coordinate lists and loop over everything.  Keep them slow
and obvious.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gagliardo", "fractional_inner", "level_set_inner", "level_set_sup", "bbm_morrey", "herz_local",
           "pair_measure", "morrey", "muckenhoupt", "luxemburg", "orlicz_slice", "lorentz",
           "variable_lebesgue", "weak_holder"]


def gagliardo(values, coords, vol, s, p):
    """Double loop over ordered cell pairs of |f(x)-f(y)|^p / |x-y|^(sp+n)."""
    n = coords.shape[1]
    total = 0.0
    m = len(values)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            d = 0.0
            for k in range(n):
                d += (coords[i, k] - coords[j, k]) ** 2
            d = math.sqrt(d)
            total += abs(values[i] - values[j]) ** p / d ** (s * p + n) * vol * vol
    return total ** (1.0 / p)


def fractional_inner(values, coords, vol, s, p):
    """Per-cell sum over y != x of |f(x)-f(y)|^p / |x-y|^(sp+n) vol."""
    n = coords.shape[1]
    m = len(values)
    out = np.zeros(m)
    for i in range(m):
        acc = 0.0
        for j in range(m):
            if i == j:
                continue
            d = 0.0
            for k in range(n):
                d += (coords[i, k] - coords[j, k]) ** 2
            d = math.sqrt(d)
            acc += abs(values[i] - values[j]) ** p / d ** (s * p + n) * vol
        out[i] = acc
    return out


def level_set_inner(values, coords, vol, lam, gamma, p):
    """Per-cell sum over y of |x-y|^(gamma-n) where |f(x)-f(y)| > lam |x-y|^(1+gamma/p)."""
    n = coords.shape[1]
    m = len(values)
    out = np.zeros(m)
    for i in range(m):
        acc = 0.0
        for j in range(m):
            if i == j:
                continue
            d = 0.0
            for k in range(n):
                d += (coords[i, k] - coords[j, k]) ** 2
            d = math.sqrt(d)
            if abs(values[i] - values[j]) > lam * d ** (1.0 + gamma / p):
                acc += d ** (gamma - n) * vol
        out[i] = acc
    return out


def level_set_sup(values, coords, vol, gamma, p):
    """Sup over all lam > 0 of lam * mu(lam)^(1/p), mu(lam) the kernel-weighted
    measure of the ordered pairs x != y with |f(x)-f(y)| > lam |x-y|^(1+gamma/p):
    the exclude-policy level-set functional in L^p, with no lambda grid.

    mu(lam) only drops at the pair thresholds t = |f(x)-f(y)| / |x-y|^(1+gamma/p)
    and lam * mu(lam)^(1/p) grows between them, so the sup is the largest
    t * mu(pairs with threshold >= t)^(1/p) over the thresholds t > 0.
    """
    n = coords.shape[1]
    m = len(values)
    thresholds, weights = [], []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            d = 0.0
            for k in range(n):
                d += (coords[i, k] - coords[j, k]) ** 2
            d = math.sqrt(d)
            thresholds.append(abs(values[i] - values[j]) / d ** (1.0 + gamma / p))
            weights.append(d ** (gamma - n) * vol * vol)
    thr = np.array(thresholds)
    w = np.array(weights)
    best = 0.0
    for t in np.unique(thr[thr > 0.0]):
        best = max(best, float(t) * float(np.sum(w[thr >= t])) ** (1.0 / p))
    return best


def bbm_morrey(values, coords, vol, q, p, r, tau, nu_range):
    """Triple loop over levels, cube positions, and cells of the dyadic assembly."""
    n = coords.shape[1]
    level_terms = []
    for nu in range(nu_range[0], nu_range[1] + 1):
        side = 2.0 ** nu
        cube_vals = []
        mins = coords.min(axis=0)
        maxs = coords.max(axis=0)
        ranges = [range(math.floor(mins[k] / side) - 1, math.ceil(maxs[k] / side) + 1)
                  for k in range(n)]
        import itertools

        for m in itertools.product(*ranges):
            acc = 0.0
            for i in range(len(values)):
                ok = True
                for k in range(n):
                    lo = side * m[k]
                    if not (coords[i, k] > lo and coords[i, k] <= lo + side):
                        ok = False
                        break
                if ok:
                    acc += abs(values[i]) ** q * vol
            if acc > 0.0:
                cube_vals.append((side ** n) ** (1.0 / p - 1.0 / q) * acc ** (1.0 / q))
        if not cube_vals:
            level_terms.append(0.0)
        elif math.isinf(r):
            level_terms.append(max(cube_vals))
        else:
            level_terms.append(sum(v ** r for v in cube_vals) ** (1.0 / r))
    if math.isinf(tau):
        return max(level_terms) if level_terms else 0.0
    return sum(t ** tau for t in level_terms) ** (1.0 / tau)


def herz_local(values, coords, vol, p, q, a, xi):
    """Annulus-by-annulus sums around xi with weight (2^k)^a."""
    n = coords.shape[1]
    xi = np.asarray(xi if not np.isscalar(xi) else [xi] * n, dtype=float)
    sums: dict[int, float] = {}
    for i in range(len(values)):
        d = 0.0
        for k in range(n):
            d += (coords[i, k] - xi[k]) ** 2
        d = math.sqrt(d)
        if d == 0.0:
            continue
        k = -200
        while 2.0 ** k <= d:
            k += 1
        # smallest k with 2^k > d, so the cell sits in annulus [2^(k-1), 2^k)
        sums[k] = sums.get(k, 0.0) + abs(values[i]) ** p * vol
    total = 0.0
    for k, mass in sums.items():
        total += ((2.0 ** k) ** a * mass ** (1.0 / p)) ** q
    return total ** (1.0 / q)


def pair_measure(values, coords, vol, lam, gamma, p):
    """Level-set pair measure: kernel-weighted count over ordered pairs."""
    n = coords.shape[1]
    m = len(values)
    total = 0.0
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            d = float(np.linalg.norm(coords[i] - coords[j]))
            if abs(values[i] - values[j]) > lam * d ** (1.0 + gamma / p):
                total += d ** (gamma - n) * vol * vol
    return total


def _in_ball(index, i, j, h, rad):
    """Cell j lies in the ball around cell i when |(j - i) h| <= rad."""
    d2 = 0.0
    for k in range(len(h)):
        t = (index[j][k] - index[i][k]) * h[k]
        d2 += t * t
    return math.sqrt(d2) <= rad


def morrey(values, index, h, vol, r, alpha, centers, radii):
    """Loop over radii, centre cells and cells of |B|^(1/alpha - 1/r) ||f||_{L^r(B)}.

    ``index`` holds each cell's integer grid position and ``centers`` the
    cell numbers of the ball centres.  Returns the maximum and the first
    maximising (centre cell, radius), radii outermost.
    """
    n = len(h)
    vball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    best, witness = 0.0, (centers[0], radii[0])
    for rad in radii:
        for c in centers:
            acc = 0.0
            for j in range(len(values)):
                if _in_ball(index, c, j, h, rad):
                    acc += abs(values[j]) ** r * vol
            val = (vball * rad ** n) ** (1.0 / alpha - 1.0 / r) * acc ** (1.0 / r)
            if val > best:
                best, witness = val, (c, rad)
    return best, witness


def muckenhoupt(samples, coords, vol, box_lo, box_hi, p, cube_lo, cube_hi, power=None):
    """Loop over closed cubes [lo, hi] and cells of the A_p cube averages.

    A cube averages over the cells whose centres it holds.  For p = 1 the sup
    of 1/w over the cube (clipped to the box) is the closed form for
    ``power = (a, c)``, the weight |x - c|^a, and the cell maximum otherwise.
    Returns the maximum and the first maximising clipped cube.
    """
    m, n = coords.shape
    samples = [float(w) for w in samples]
    witness = (tuple(cube_lo[0]), tuple(cube_hi[0]))
    if p > 1 and any(w == 0.0 for w in samples):
        return math.inf, witness
    best = -math.inf
    for q in range(len(cube_lo)):
        mass = wsum = dsum = 0.0
        wmin = math.inf
        for i in range(m):
            if all(cube_lo[q][k] <= coords[i][k] <= cube_hi[q][k] for k in range(n)):
                mass += vol
                wsum += samples[i] * vol
                wmin = min(wmin, samples[i])
                if p > 1:
                    dsum += samples[i] ** (1.0 - p / (p - 1.0)) * vol
        if mass == 0.0:
            continue
        lo = [max(cube_lo[q][k], box_lo[k]) for k in range(n)]
        hi = [min(cube_hi[q][k], box_hi[k]) for k in range(n)]
        if p > 1:
            val = wsum / mass * (dsum / mass) ** (p - 1.0)
        elif power is None:
            val = wsum / mass * (math.inf if wmin == 0.0 else 1.0 / wmin)
        else:
            a, c = power
            far = near = 0.0
            for k in range(n):
                far += max(abs(lo[k] - c[k]), abs(hi[k] - c[k])) ** 2
                near += max(0.0, lo[k] - c[k], c[k] - hi[k]) ** 2
            if a == 0:
                sup = 1.0
            elif a < 0:
                sup = math.sqrt(far) ** (-a)
            else:
                sup = math.inf if near == 0.0 else math.sqrt(near) ** (-a)
            val = wsum / mass * sup
        if val > best:
            best, witness = val, (tuple(lo), tuple(hi))
    return best, witness


def luxemburg(values, vol, phi):
    """Bracketing by doubling and bisection of sum phi(|v| / lam) vol = 1."""
    vals = [abs(x) for x in values]
    vmax = max(vals)
    if vmax == 0.0:
        return 0.0

    def modular(lam):
        total = 0.0
        for x in vals:
            total += float(phi(x / lam)) * vol
        return total

    lo = hi = vmax
    while modular(hi) > 1.0:
        hi *= 2.0
    while modular(lo) <= 1.0:
        lo /= 2.0
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def orlicz_slice(values, index, h, vol, phi, r, t):
    """Loop over cells of the slice ratio |f 1_B|_Phi / |1_B|_Phi, B the ball
    of radius t around the cell, then the L^r norm of the ratios."""
    total = 0.0
    for i in range(len(values)):
        ball = [values[j] for j in range(len(values)) if _in_ball(index, i, j, h, t)]
        ratio = luxemburg(ball, vol, phi) / luxemburg([1.0] * len(ball), vol, phi)
        total += ratio ** r * vol
    return total ** (1.0 / r)


def lorentz(values, vol, r, tau):
    """Layer cake over the distinct levels y_1 > ... > y_m > 0 of |f|:
    ||f||^tau = sum_j (r/tau) mu_j^(tau/r) (y_j^tau - y_(j+1)^tau), y_(m+1) = 0,
    with mu_j the measure of {|f| >= y_j}, counted cell by cell."""
    vals = [abs(x) for x in values]
    levels = sorted({x for x in vals if x > 0.0}, reverse=True)
    total = 0.0
    for j, y in enumerate(levels):
        below = levels[j + 1] if j + 1 < len(levels) else 0.0
        mu = 0.0
        for x in vals:
            if x >= y:
                mu += vol
        total += (r / tau) * mu ** (tau / r) * (y ** tau - below ** tau)
    return total ** (1.0 / tau)


def variable_lebesgue(values, vol, exponents):
    """Bracketing by doubling and bisection of sum (|v_i| / lam)^r_i vol = 1."""
    cells = [(abs(x), float(e)) for x, e in zip(values, exponents)]
    vmax = max(x for x, _ in cells)
    if vmax == 0.0:
        return 0.0

    def modular(lam):
        total = 0.0
        for x, e in cells:
            total += (x / lam) ** e * vol
        return total

    lo = hi = vmax
    while modular(hi) > 1.0:
        hi *= 2.0
    while modular(lo) <= 1.0:
        lo /= 2.0
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def weak_holder(F, G, coords, vol, gamma, weight, p, cells=None):
    """Both sides (lhs, rhs) of the weak Hoelder check, one pair and one level at a time."""
    m, n = coords.shape
    kern = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j or (cells is not None and not (cells[i] and cells[j])):
                continue
            d = math.sqrt(sum((coords[i, k] - coords[j, k]) ** 2 for k in range(n)))
            kern[i, j] = d ** (gamma - n) * weight[i] * vol * vol
    absF = np.abs(F)
    absG = np.abs(G)
    lhs = float(np.sum(absF * absG * kern))
    pp = p / (p - 1.0)
    fvals = np.unique(absF[kern > 0]) if np.any(kern > 0) else np.array([])
    fvals = fvals[fvals > 0]
    sup = 0.0
    for v in fvals:
        mu = float(np.sum(kern[absF >= v]))
        sup = max(sup, v * mu ** (1.0 / p))
    gvals = np.concatenate(([0.0], np.unique(absG[kern > 0]))) if np.any(kern > 0) else np.array([0.0])
    integral = 0.0
    for lo, hi in zip(gvals[:-1], gvals[1:]):
        mu = float(np.sum(kern[absG >= hi]))
        integral += (hi - lo) * mu ** (1.0 / pp)
    return lhs, pp * sup * integral
