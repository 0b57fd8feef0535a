"""Independent oracles for the benchmark's correctness checks.

Nothing here imports acalg: every expected value is recomputed from the
mathematics with plain integers and ``fractions.Fraction``, so a defect in
the engine cannot hide behind the same defect in its checker.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- Gaussian rationals as (re, im) pairs of Fractions --------------------------

ZERO = (Fraction(0), Fraction(0))


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def g_half(a):
    return (a[0] / 2, a[1] / 2)


def g_neg(a):
    return (-a[0], -a[1])


def _frac_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_gaussian(a) -> str:
    """The scalar text format: "a/b", "c/d*i" or "a/b+c/d*i"."""
    re_, im = a
    if im == 0:
        return _frac_text(re_)
    if re_ == 0:
        return f"{_frac_text(im)}*i"
    sign = "+" if im > 0 else "-"
    return f"{_frac_text(re_)}{sign}{_frac_text(abs(im))}*i"


def parse_gaussian(text: str):
    """Inverse of :func:`format_gaussian`; raises ValueError otherwise."""
    if not text.endswith("*i"):
        return (Fraction(text), Fraction(0))
    body = text[:-2]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        return (Fraction(0), Fraction(body))
    return (Fraction(body[:cut]), Fraction(body[cut:]))


def rank(rows) -> int:
    """Rank of a small matrix of Gaussian rationals by Gaussian elimination."""
    work = [list(row) for row in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != ZERO), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != ZERO:
                factor = g_div(work[i][c], work[r][c])
                work[i] = [g_sub(x, g_mul(factor, y)) for x, y in zip(work[i], work[r])]
        r += 1
    return r


# -- Maurer-Cartan locus in degree 1 -----------------------------------------------


def mc_quadrics(x, y, z, w):
    """(x z - y^2, y w - z^2, x w - y z): the three quadrics cutting out the
    degree-1 Maurer-Cartan locus of a = x mubar + y delbar + z del + w mu."""
    return (
        g_sub(g_mul(x, z), g_mul(y, y)),
        g_sub(g_mul(y, w), g_mul(z, z)),
        g_sub(g_mul(x, w), g_mul(y, z)),
    )


def mc_cocycles(x, y, z, w) -> tuple[int, int]:
    """(dim ker ad_a on g_1, nullity of the abelian-quotient map on it).

    Polarizing [a, a] gives [a, e] for the generators e = mubar, delbar, del,
    mu in the basis ([delbar,delbar], [delbar,del], [del,del]) of g_2:

        [a, mubar]  = (-z/2, -w,   0)
        [a, delbar] = ( y,    z,  -w/2)
        [a, del]    = (-x/2,  y,   z)
        [a, mu]     = ( 0,   -x,  -y/2)

    The kernel has dimension 4 - rank.  The quotient keeps the delbar and del
    coordinates, so its nullity on the kernel is the dimension of the kernel
    inside span(mubar, mu): 2 - rank of those two columns.
    """
    col_mubar = (g_neg(g_half(z)), g_neg(w), ZERO)
    col_delbar = (y, z, g_neg(g_half(w)))
    col_del = (g_neg(g_half(x)), y, z)
    col_mu = (ZERO, g_neg(x), g_neg(g_half(y)))
    full = [list(row) for row in zip(col_mubar, col_delbar, col_del, col_mu)]
    outer = [list(row) for row in zip(col_mubar, col_mu)]
    return 4 - rank(full), 2 - rank(outer)


def strata_nullity(s, t) -> int:
    """Nullity on the twisted cubic d_{s,t}: 0 generic, 1 on an axis, 2 at 0."""
    return (s == ZERO) + (t == ZERO)


# -- dimension oracles ---------------------------------------------------------------


def super_pbw_dims(max_k: int) -> dict[int, int]:
    """Degree dimensions of the free Lie superalgebra on two odd generators.

    Its enveloping algebra, the free algebra on delbar and del, has Hilbert
    series 1/(1 - 2q).  By super-PBW that series is the product over k of
    (1 + q^k)^{d_k} for odd k and (1 - q^k)^{-d_k} for even k, so each d_k is
    read off as the deficit left by the factors of lower degree.
    """
    running = [1] + [0] * max_k
    dims: dict[int, int] = {}
    for k in range(1, max_k + 1):
        d = 2**k - running[k]
        dims[k] = d
        factor = [0] * (max_k + 1)
        for n in range(max_k // k + 1):
            factor[n * k] = math.comb(d, n) if k % 2 else math.comb(d + n - 1, n)
        running = [
            sum(running[i] * factor[m - i] for i in range(m + 1)) for m in range(max_k + 1)
        ]
    return dims


def expected_dim_g(k: int) -> int:
    """dim g_k: the four generators in degree 1, the free part above."""
    return 4 if k == 1 else super_pbw_dims(k)[k]


def expected_dim_h(k: int) -> int:
    return super_pbw_dims(k)[k]


# -- normal forms ----------------------------------------------------------------------

_HEAD = frozenset(("delbar", "del"))
_TAILS = ((), ("mubar",), ("mu",), ("mubar", "mu"))


def is_normal_word(letters) -> bool:
    """No-redex predicate: a head over delbar/del followed by an admissible
    tail 1, mubar, mu or mubar.mu.  Equivalent to: no mu is followed by any
    letter, and no mubar is followed by anything but mu."""
    n = 0
    while n < len(letters) and letters[n] in _HEAD:
        n += 1
    return tuple(letters[n:]) in _TAILS
