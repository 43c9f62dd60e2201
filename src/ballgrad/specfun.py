"""Gegenbauer polynomials and the Gauss hypergeometric function, restricted
to the real parameter ranges this package needs, plus the classical
identities connecting them.

All functions are pure, deterministic and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import quadrature
from .errors import ConvergenceError, Evaluation, check_dim, is_whole
# unused here, but perfbench's tracer rebinds and restores ``specfun.integrate``
from .quadrature import integrate  # noqa: F401
from .report import CheckResult, VerificationReport, worst_error_check

__all__ = [
    "gegenbauer_iter",
    "HypergeometricInput",
    "hyp2f1",
    "profile_hyp2f1",
    "abs_kernel_coefficient",
    "gegenbauer_weighted_derivative",
    "verify_identities",
]

DEFAULT_SERIES_RTOL = 1e-13
_SERIES_BUDGET = 10_000

# The most degrees per block of gegenbauer_iter; at least 2, since a restart
# reads the last two rows of a block.
_GEGENBAUER_BLOCK = 128
# The fewest degrees per block of gegenbauer_iter after degrees 0 and 1 and
# after a restart, unless the cap or ``stop`` cuts it (why: its docstring).
_GEGENBAUER_OPEN = 64
# Blocks of gegenbauer_iter with at most this many values per degree run
# column by column on Python floats; wider blocks run one numpy row per degree.
_GEGENBAUER_NARROW = 12

# Arguments per pass of a batched hyp2f1, and the most degrees per block of its terms.
_GAUSS_PASS = 128
_GAUSS_BLOCK = 64

# Steps of profile_hyp2f1's continued fraction before it raises: every
# argument below z* stops within 57 up to n = 1000.
_PROFILE_CF_CAP = 200
# c of the rounding term c n u |F| in profile_hyp2f1's estimate, u = 2^-53:
# its error against 50-digit mpmath stays below 6 n u (tests/test_specfun.py).
_PROFILE_ROUNDING = 8.0


def gegenbauer_iter(lam, x, stop=None, state=None):
    """Yield the Gegenbauer values of degree 0, 1, 2, ... for the parameter
    ``lam`` at ``x``, in blocks of consecutive degrees: each block is one
    array whose leading axis runs over its degrees.  ``lam`` and ``x`` may
    each be a number or a numpy array, and the values broadcast over both:
    a column of parameters against a row of points gives one value per
    pair, each equal to that pair's own call.  The forward recurrence is
    stable for |x| <= 1 at the degrees used here (up to a few thousand).
    A caller that wants one value per degree chains the blocks
    (``itertools.chain.from_iterable``).

    Degrees 0 and 1 form the first block; a block starting at degree k
    holds max(k + 2, ``_GEGENBAUER_OPEN``) degrees, at most
    ``_GEGENBAUER_BLOCK``: degrees 2-65, 66-133, then 128 at a time, and
    at least 64 after a restart.  In a series sum each block costs about
    40-50 numpy calls, a stop check and often a compaction and restart
    however few degrees it holds, and the sums run to 30-60 degrees at
    rho = 0.5 and 1,100-3,000 at 0.99, so blocks open wide rather than
    ramp up from 2.  With ``stop`` set, the last block is cut at degree
    ``stop``, so a call that wants a few low degrees forms no more.
    ``state = (k, previous, current)`` restarts the recurrence at degree
    k >= 2 from the values of degrees k - 2 and k - 1, arrays of the
    broadcast shape of ``lam`` and ``x``; its first block starts at k.

    A block of at most ``_GEGENBAUER_NARROW`` values per degree runs one
    Python-float loop over its degrees in each column; a wider block runs
    one numpy row per degree.  Either way every value is formed as
    (up * current - down * previous) / k, the same four IEEE operations in
    the same order on its own entry as in one uninterrupted call, so
    neither the loop order, a restart nor a cut changes a value.  The next
    block is formed from the last two values of the one before, so a
    caller must not write into a block it was given.

    Raises ``ValueError`` for a non-finite ``lam`` or ``x``, a ``stop``
    that is not an integer of at least 0, or a ``state`` whose degree is
    not an integer of at least 2 or whose values are not one per entry."""
    lam, x = np.asarray(lam, dtype=float), np.asarray(x, dtype=float)
    if not (np.isfinite(lam).all() and np.isfinite(x).all()):
        raise ValueError("lam and x must be finite")
    if stop is not None and not is_whole(stop, 0):
        raise ValueError("stop must be None or an integer of at least 0")
    if state is not None and not (
        is_whole(state[0], 2) and np.size(state[1]) == np.size(state[2]) == np.broadcast(lam, x).size
    ):
        raise ValueError("state must be (k, previous, current): k an integer of at least 2, one value per entry")
    return _gegenbauer_blocks(lam, x, stop, state)


def _gegenbauer_blocks(lam, x, stop, state):
    """The blocks of :func:`gegenbauer_iter`, for checked arguments: degrees
    0 and 1, then from degree k a block of max(k + 2, ``_GEGENBAUER_OPEN``)
    degrees, cut by ``_GEGENBAUER_BLOCK`` and by ``stop``.  No value depends
    on the block sizes, so they only set how many numpy calls a series pays."""
    shape = np.broadcast_shapes(lam.shape, x.shape)
    last = math.inf if stop is None else stop
    if state is None:
        block = np.empty((2,) + shape)
        block[0], block[1] = 1.0, 2.0 * lam * x
        yield block[: 1 if stop == 0 else 2]
        k, (previous, current) = 2, block.reshape(2, -1)
    else:
        k, previous, current = state[0], np.reshape(state[1], -1), np.reshape(state[2], -1)
    narrow = 0 < previous.size <= _GEGENBAUER_NARROW
    if narrow:
        previous, current = previous.tolist(), current.tolist()
    while k <= last:
        size = int(min(max(k + 2, _GEGENBAUER_OPEN), _GEGENBAUER_BLOCK, last + 1 - k))
        degrees = np.arange(k, k + size, dtype=float).reshape((size,) + (1,) * len(shape))
        # each row of ``block`` holds its degree's up factors, then its values;
        # C order, so that the rows below are views of the block
        block = np.multiply(2.0 * (degrees + lam - 1.0), x, order="C")
        downs = np.empty(block.shape)
        downs[...] = degrees + 2.0 * lam - 2.0
        rows, divisors = block.reshape(size, -1), degrees.ravel().tolist()
        if narrow:
            # one Python-float loop over the block's degrees per column
            columns = []
            for i, (ups, column_downs) in enumerate(zip(rows.T.tolist(), downs.reshape(size, -1).T.tolist())):
                p, c = previous[i], current[i]
                column = []
                for up, down, divisor in zip(ups, column_downs, divisors):
                    p, c = c, (up * c - down * p) / divisor
                    column.append(c)
                previous[i], current[i] = p, c
                columns.append(column)
            rows.T[...] = columns
        else:
            for up, down, divisor in zip(rows, downs.reshape(size, -1), divisors):
                up *= current
                down *= previous
                up -= down
                up /= divisor
                previous, current = current, up
        yield block
        k += size


def _gegenbauer(lam, degree, x):
    """The values of :func:`gegenbauer_iter` at ``degree``: one integer, or
    an integer array broadcasting with ``x`` that gives each entry its own
    degree.  One recurrence runs up to the largest degree."""
    degree = np.asarray(degree)
    values = np.concatenate(list(gegenbauer_iter(lam, x, stop=int(degree.max(initial=0)))))
    return np.take_along_axis(values, np.broadcast_to(degree, values.shape[1:])[None], 0)[0]


def _pow_each(x, p):
    """``x ** p`` for each entry of an array, by one scalar pow per entry:
    numpy's vector pow rounds some differently."""
    return np.array([v**p for v in x.tolist()])


def _radii(rho, valid, message):
    """``rho`` as a 1-D array of points, and whether it was one number
    rather than a sequence.  ``valid`` tests an array of points entrywise;
    an empty, deeper or failing ``rho`` raises ``ValueError(message)``."""
    radii = np.asarray(rho, dtype=float)
    single = radii.ndim == 0
    radii = radii.reshape(-1) if single else radii
    if radii.ndim != 1 or radii.size == 0 or not np.all(valid(radii)):
        raise ValueError(message)
    return radii, single


def _one_or_list(values, single):
    """The only value of an array for a one-number call, else a list."""
    return float(values[0]) if single else values.tolist()


@dataclass(frozen=True)
class HypergeometricInput:
    """Arguments of a real Gauss hypergeometric evaluation.

    Each of ``a``, ``b``, ``c`` and ``z`` is one number or a non-empty 1-D
    sequence, kept as a float or a tuple of floats.  The sequences must have
    equal lengths, and a number stands for every entry of them.  Every
    parameter and argument must be finite; the series diverges at z >= 1 and
    the function has poles when c is zero or a negative integer.  All of
    these are rejected at construction, for every entry of a sequence.
    """

    a: float | tuple[float, ...]
    b: float | tuple[float, ...]
    c: float | tuple[float, ...]
    z: float | tuple[float, ...]

    def __post_init__(self):
        entries, lengths = [], set()  # every field as a tuple; the lengths of the sequences
        for name in ("a", "b", "c", "z"):
            value = getattr(self, name)
            if not isinstance(value, float):
                column = np.asarray(value, dtype=float)
                if column.ndim > 1 or column.size == 0:
                    raise ValueError(f"{name} must be a number or a non-empty 1-D sequence")
                value = tuple(column.tolist()) if column.ndim else float(column)
                object.__setattr__(self, name, value)
            if isinstance(value, tuple):
                lengths.add(len(value))
            entries.append(value if isinstance(value, tuple) else (value,))
        if len(lengths) > 1:
            raise ValueError("the sequences of parameters and arguments must have equal lengths")
        _, _, c, z = entries
        if not all(map(math.isfinite, chain(*entries))):
            raise ValueError("non-finite: a, b, c and z must be finite")
        if any(x <= 0.0 and x == round(x) for x in c):
            raise ValueError("pole: c must not be zero or a negative integer")
        if max(z) >= 1.0:
            raise ValueError("divergent: argument must satisfy z < 1")


def _sorted_passes(keys, per_pass):
    """The passes of a batch over the 1-D array ``keys``: index arrays of at
    most ``per_pass`` entries, taken in the order of ``keys`` (ties in input
    order), so that entries of like cost share a pass and a cheap pass is
    not held up by one costly entry."""
    order = np.argsort(keys, kind="stable")
    return [order[start : start + per_pass] for start in range(0, keys.size, per_pass)]


def _exact_sums(keys, heads, per_pass, blocks, rel_tol):
    """Exact sums of power series, one per entry of the 1-D arrays ``keys``
    and ``heads``: in the order of ``keys``, each entry's sum, the magnitude
    of its stopping term and whether the window stopped it.

    The entries run in the passes of :func:`_sorted_passes`, so slow
    entries share passes.  ``blocks(index)`` is a generator over the pass
    ``index`` that yields ``(terms, marks)``: the next rows of terms, one
    column per entry still summing, and where its caller stops an entry.
    After a block where entries stopped it is sent the mask of the entries
    kept and drops the rest; otherwise it is sent None.  An entry stops at
    its first marked term or, with ``rel_tol`` set, at the term after three
    in a row within ``rel_tol`` of its running sum, and its head and terms
    before the stop are ``math.fsum``med.  No result depends on the other
    entries or on the block sizes: each entry's terms are read alone.
    """
    values, estimates, settled = np.empty(keys.size), np.empty(keys.size), np.zeros(keys.size, dtype=bool)
    for index in _sorted_passes(keys, per_pass):  # index: the entries of the pass still summing
        source, running = blocks(index), heads[index]
        stored = [running[None]]  # each entry's head and terms so far, one array per block
        small = np.zeros((3, index.size), dtype=bool)  # whether each of the last three terms was small
        length, keep = 1, None  # length: the head and terms stored per entry
        while index.size:
            terms, marks = source.send(keep)
            size = terms.shape[0]
            sums = np.empty((size + 1, index.size))
            sums[0], sums[1:] = running, terms
            np.add.accumulate(sums, out=sums)
            window = np.zeros(terms.shape, dtype=bool)
            if rel_tol is not None:
                flags = np.empty((size + 3, index.size), dtype=bool)
                flags[:3] = small
                np.less_equal(np.abs(terms), rel_tol * np.abs(sums[1:]), out=flags[3:])
                window, small = flags[:-3] & flags[1:-2] & flags[2:-1], flags[-3:]
            stop = marks | window
            stored.append(terms)
            running, length, keep = sums[-1], length + size, None
            done = stop.any(axis=0)
            if not done.any():
                continue
            finished = np.flatnonzero(done)
            last = stop.argmax(axis=0)[finished]
            estimates[index[finished]] = np.abs(terms[last, finished])
            settled[index[finished]] = window[last, finished]
            ends = (length - size + last).tolist()
            # as many entries at a time as keep the gathered copy near 64 kB
            per = max(1, 8192 // length)
            for lo in range(0, finished.size, per):
                group = finished[lo : lo + per]
                rows = np.concatenate([block[:, group].T for block in stored], axis=1)
                for i, row, end in zip(index[group].tolist(), rows, ends[lo : lo + per]):
                    values[i] = math.fsum(memoryview(row)[:end])
            keep = ~done
            for b, block in enumerate(stored):
                stored[b] = block[:, keep]  # in place: the old copy of each block goes at once
            index, running, small = index[keep], running[keep], small[:, keep]
    return values, estimates, settled


def _gauss_series_batch(params, z, rel_tol):
    """The Gauss series at every argument of the array ``z`` (each in
    [0, 1)) by :func:`_exact_sums`, in the order of ``z``.  ``params`` holds
    the rows a, b and c, one column per argument.  Terms
    come a block of degrees at a time (32 at first, up to ``_GAUSS_BLOCK``)
    as a running product of the ratios (a+k)(b+k)/((c+k)(k+1)) times z, and
    a zero term stops an argument.  The first argument in sorted order still
    summing after ``_SERIES_BUDGET`` terms raises ``ConvergenceError`` with
    its sum so far and a geometric bound on its tail.
    """
    reached = []  # the arguments still summing at the budget, in sorted order

    def blocks(index):
        x = z[index]
        pa, pb, pc = params[:, index]
        term, k, size = np.ones(index.size), 0, 32
        while k < _SERIES_BUDGET:
            size = min(size, _SERIES_BUDGET - k)
            degrees = np.arange(k, k + size, dtype=float)[:, None]
            # row 0 is the last term so far; a running product turns ratios times z into terms
            terms = np.empty((size + 1, index.size))
            terms[0] = term
            np.multiply((pa + degrees) * (pb + degrees) / ((pc + degrees) * (degrees + 1.0)), x, out=terms[1:])
            np.multiply.accumulate(terms, out=terms)
            terms, term, k, size = terms[1:], terms[-1], k + size, min(2 * size, _GAUSS_BLOCK)
            keep = yield terms, terms == 0.0
            if keep is not None:
                index, x, term, pa, pb, pc = index[keep], x[keep], term[keep], pa[keep], pb[keep], pc[keep]
        reached.extend(index.tolist())
        # in place of the next term, a marked row holding the tail bound
        yield (term * x / np.maximum(1.0 - x, 1e-6))[None], np.ones((1, index.size), dtype=bool)

    values, estimates, settled = _exact_sums(z, np.ones(z.size), _GAUSS_PASS, blocks, rel_tol)
    failed = [i for i in reached if not settled[i]]  # a window closing on the marked row converged
    if failed:
        message = f"hypergeometric series did not converge within {_SERIES_BUDGET} terms"
        raise ConvergenceError(message, float(values[failed[0]]), float(estimates[failed[0]]))
    return values


def hyp2f1(inp: HypergeometricInput, rel_tol: float = DEFAULT_SERIES_RTOL) -> float | list[float]:
    """Gauss hypergeometric function for real parameters and argument z < 1.

    The power series is summed directly for z in [0, 1), where all in-scope
    arguments fall and the term ratio tends to z.  Negative arguments,
    including z <= -1 where the raw series diverges, are first mapped into
    [0, 1) by the argument transformation z -> z/(z-1), under which the value
    picks up the factor (1-z)^(-b) and the upper parameter a becomes c - a.
    The series is stopped once three consecutive terms fall below ``rel_tol``
    relative to the partial sum; terms are accumulated exactly at the end.

    Every call is summed as one batch (:func:`_gauss_series_batch`), each
    argument with its own parameters.  When ``inp.a``, ``inp.b``, ``inp.c``
    and ``inp.z`` are all numbers the result is a float; otherwise it is a
    list of floats in input order, each equal to the call with that entry's
    numbers.  ``rel_tol`` must be finite and positive.
    """
    if not 0.0 < rel_tol < math.inf:
        raise ValueError("rel_tol must be finite and positive")
    fields = (inp.a, inp.b, inp.c, inp.z)
    size = max(len(field) if isinstance(field, tuple) else 1 for field in fields)
    a, b, c, z = (np.array(field) if isinstance(field, tuple) else np.full(size, field) for field in fields)
    negative = z < 0.0
    params = np.stack((np.where(negative, c - a, a), b, c))
    values = _gauss_series_batch(params, np.where(negative, z / (z - 1.0), z), rel_tol)
    if negative.any():
        # one scalar pow per argument: numpy's vector pow rounds some differently
        mapped = zip(z[negative].tolist(), b[negative].tolist(), values[negative].tolist())
        values[negative] = [(1.0 - x) ** (-p) * v for x, p, v in mapped]
    if any(isinstance(field, tuple) for field in fields):
        return values.tolist()
    return float(values[0])


def profile_hyp2f1(n: int, z) -> Evaluation:
    """F_n(z) = 2F1(1, n/2; (n+1)/2; z), the profile's one 2F1 family, for an
    integer n >= 3 and z in [0, 1): one number gives an :class:`Evaluation`
    of floats, a 1-D sequence one of arrays, each entry with the bits of its
    one-argument call (every operation is elementwise on its own entry).

    With a = (n-1)/2, F_n is exactly the incomplete-beta continued fraction
    (DLMF 8.17.22): B_z(a, 1/2) = z^a (1-z)^(1/2) F_n(z) / a.  Below
    z* = (a+1)/(a+5/2) modified Lentz runs it, each argument to its first
    step within 2^-52 of 1 (that step times |F| is its stopping estimate;
    200 steps raise :class:`ConvergenceError`).  From z*, where it slows, the
    finite complement: with phi = arcsin sqrt(1-z), F_n = (n-1) z^(-a)
    (1-z)^(-1/2) (W_{n-2} - K_{n-2}(phi)), W_k the integral of sin^k over
    [0, pi/2], K_k that of cos^k over [0, phi], by the positive recurrence
    K_k = (cos^(k-1) sin + (k-1) K_{k-2}) / k; both run divided by
    z^((k+1)/2), so no power is taken.  Every estimate adds c n u |F|,
    c = ``_PROFILE_ROUNDING`` and u = 2^-53.  ``ValueError`` for other n or z."""
    n = check_dim(n, 3)
    z, single = _radii(z, lambda x: (0.0 <= x) & (x < 1.0), "z must lie in [0, 1)")
    a = 0.5 * (n - 1)
    values, steps = np.empty(z.size), np.zeros(z.size)
    below = z < (a + 1.0) / (a + 2.5)
    index, x = np.flatnonzero(below), z[below]
    if x.size:
        d = 1.0 / (1.0 - (a + 0.5) / (a + 1.0) * x)
        c, h, done = np.ones(x.size), d, np.zeros(x.size, dtype=bool)
        for m in range(1, _PROFILE_CF_CAP + 1):
            even = m * (0.5 - m) / ((a + 2 * m - 1.0) * (a + 2 * m))
            odd = -(a + m) * (a + 0.5 + m) / ((a + 2 * m) * (a + 2 * m + 1.0))
            for coefficient in (even, odd):
                term = coefficient * x
                d = 1.0 / (1.0 + term * d)
                c = 1.0 + term / c
                ratio = d * c
                h = h * ratio
            stop = ~done & (np.abs(ratio - 1.0) <= 2.0**-52)
            values[index[stop]], steps[index[stop]] = h[stop], np.abs(ratio[stop] - 1.0) * np.abs(h[stop])
            done |= stop
            if done.all():
                break
        else:
            k = int(np.argmin(done))
            message = f"2F1(1, n/2; (n+1)/2; z) at n = {n}: continued fraction not settled in {_PROFILE_CF_CAP} steps"
            raise ConvergenceError(message, float(h[k]), float(abs(ratio[k] - 1.0) * abs(h[k])))
    y = z[~below]
    if y.size:
        s = np.sqrt(1.0 - y)
        # z^(-(k+1)/2) W_k and z^(-(k+1)/2) K_k from k = 1 or 0, the parity of n, to n - 2
        if n % 2:
            wallis, partial = 1.0 / y, s / y
        else:
            wallis, partial = 0.5 * math.pi / np.sqrt(y), np.arcsin(s) / np.sqrt(y)
        for k in range(2 + n % 2, n - 1, 2):
            wallis = (k - 1.0) * wallis / (k * y)
            partial = ((k - 1.0) * partial + s) / (k * y)
        values[~below] = (n - 1.0) * (wallis - partial) / s
    estimates = steps + _PROFILE_ROUNDING * n * 2.0**-53 * np.abs(values)
    return Evaluation(float(values[0]), float(estimates[0])) if single else Evaluation(values, estimates)


def _degrees_and_points(k, x, name):
    """Nonnegative integer degrees ``k`` and points ``x`` inside (-1, 1) as
    two 1-D float arrays of one length, and whether both were numbers.  Each
    is a number or a non-empty 1-D sequence; a number stands for every entry."""
    k, single_k = _radii(
        k, lambda d: np.isfinite(d) & (d >= 0.0) & (d == np.floor(d)), "degree must be a nonnegative integer"
    )
    x, single_x = _radii(x, lambda v: (-1.0 < v) & (v < 1.0), f"{name} must lie strictly inside (-1, 1)")
    if not (single_k or single_x or k.size == x.size):
        raise ValueError("the sequences of degrees and points must have equal lengths")
    k, x = np.broadcast_arrays(k, x)
    return k, x, single_k and single_x


def abs_kernel_coefficient(lam: float, k, s) -> float | list[float]:
    """Weighted moment of |x - s| against one Gegenbauer polynomial.

    Returns the integral over [-1, 1] of
    ``|x - s| * (1 - x^2)^(lam - 1/2) * C_k(x)`` for parameter ``lam``.
    Degrees k >= 2 use the closed form

        8 lam (lam+1) / (k (k-1) (k+2 lam) (k+2 lam+1))
            * (1 - s^2)^(lam + 3/2) * C_{k-2}^{lam+2}(s).

    Degrees 0 and 1 are closed as well, for half-integer ``lam`` (2 lam an
    integer; any other ``lam`` raises ``ValueError``).  With a = lam - 1/2,
    w = 1 - s^2, P the integral of (1 - x^2)^a over [s, 1], B the one over
    [-1, 1] and Q = w^(lam + 1/2) / (2 lam + 1),

        k = 0:  2 Q + s (B - 2 P),
        k = 1:  2 lam / (2 lam + 2) * (2 P - B - 2 s Q).

    P climbs in a by J_a = (2a J_{a-1} - s w^a) / (2a + 1) from
    J_0 = 1 - s or J_{-1/2} = arccos(s); B by the same step without the s
    term, from 2 or pi.

    ``k`` and ``s`` are each one number or a non-empty 1-D sequence
    (:func:`_degrees_and_points`).  Two numbers give a float, anything else
    a list in input order, each entry equal to the call with its own
    numbers; one value is a batch of one.
    """
    if lam <= -0.5:
        raise ValueError("parameter must exceed -1/2")
    k, s, single = _degrees_and_points(k, s, "s")
    head = k < 2
    if head.any() and not (math.isfinite(lam) and (2.0 * lam).is_integer()):
        raise ValueError("degrees 0 and 1 need 2 lam to be an integer")
    k2, s2 = k[~head], s[~head]
    coef = 8.0 * lam * (lam + 1.0) / (k2 * (k2 - 1.0) * (k2 + 2.0 * lam) * (k2 + 2.0 * lam + 1.0))
    values = np.empty(s.size)
    values[~head] = coef * _pow_each(1.0 - s2 * s2, lam + 1.5) * _gegenbauer(lam + 2.0, k2.astype(int) - 2, s2)
    if not head.any():
        return _one_or_list(values, single)

    s = s[head]
    w = 1.0 - s * s
    # a climbs in unit steps to lam - 1/2, from 0 or from -1/2
    if (2.0 * lam) % 2.0:
        a, p, b = 0.0, 1.0 - s, 2.0
    else:
        a, p, b = -0.5, np.array([math.acos(v) for v in s.tolist()]), math.pi
    while a < lam - 0.5:
        a += 1.0
        p = (2.0 * a * p - s * _pow_each(w, a)) / (2.0 * a + 1.0)
        b = 2.0 * a * b / (2.0 * a + 1.0)
    q = _pow_each(w, lam + 0.5) / (2.0 * lam + 1.0)
    zeroth, first = 2.0 * q + s * (b - 2.0 * p), 2.0 * lam / (2.0 * lam + 2.0) * (2.0 * p - b - 2.0 * s * q)
    values[head] = np.where(k[head] == 0.0, zeroth, first)
    return _one_or_list(values, single)


def gegenbauer_weighted_derivative(lam: float, k, x) -> float | list[float]:
    """d/dx of (1 - x^2)^(lam - 1/2) * C_k(x) for parameter ``lam`` != 1.

    Evaluated through the lowered-parameter identity

        -(k+1)(k + 2 lam - 1) / (2 (lam - 1))
            * (1 - x^2)^(lam - 3/2) * C_{k+1}^{lam-1}(x),

    whose derivation excludes lam = 1.  ``k`` and ``x`` are each one number
    or a non-empty 1-D sequence, as for :func:`abs_kernel_coefficient`.
    """
    if lam == 1.0:
        raise ValueError("lam = 1 is excluded")
    k, x, single = _degrees_and_points(k, x, "x")
    lead = -(k + 1.0) * (k + 2.0 * lam - 1.0) / (2.0 * (lam - 1.0))
    values = lead * _pow_each(1.0 - x * x, lam - 1.5) * _gegenbauer(lam - 1.0, k.astype(int) + 1, x)
    return _one_or_list(values, single)


# ---------------------------------------------------------------------------
# identity sweeps


def _truncation_degree(lam: float, z: float, tol: float) -> int:
    # Terms are bounded by C_k(1) z^k = (2 lam)_k / k! z^k, whose successive
    # ratio z (k + 2 lam)/(k + 1) decreases for lam >= 1/2; step until the
    # geometric majorant of the tail drops below tol.
    if lam < 0.5 or not 0.0 < z < 1.0:
        raise ValueError("tail bound assumes lam >= 1/2 and 0 < z < 1")
    t = 1.0
    k = 0
    while True:
        ratio = z * (k + 2.0 * lam) / (k + 1.0)
        if ratio < 1.0 and t * ratio / (1.0 - ratio) < tol:
            return k
        t *= ratio
        k += 1
        if k > 100_000:
            raise RuntimeError("tail bound did not close")


def _generating_relation_check() -> CheckResult:
    xs = np.linspace(-0.9, 0.9, 10)
    zs = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    lams = (0.5, 1.0, 1.5, 2.5)
    kmaxes = [[_truncation_degree(lam, z, 1e-12) for z in zs] for lam in lams]
    # every parameter's values at every point, as one column against one row
    values = np.concatenate(list(gegenbauer_iter(np.array(lams)[:, None], xs, stop=max(map(max, kmaxes)))))
    errors = []
    for j, lam in enumerate(lams):
        partials = []  # per z, the partial sum at every point
        for z, kmax in zip(zs, kmaxes[j]):
            powers = np.cumprod(np.r_[1.0, np.full(kmax, z)])  # z^k as a running product
            partials.append([math.fsum(row) for row in (values[: kmax + 1, j] * powers[:, None]).T.tolist()])
        for i, x in enumerate(xs):
            for z, partial in zip(zs, partials):
                closed = (1.0 - 2.0 * x * z + z * z) ** (-lam)
                errors.append((abs(partial[i] - closed), f"lam={lam},x={x:.2f},z={z}"))
    return worst_error_check("generating_relation", errors, 1e-10)


def _rainville_check(n: int) -> CheckResult:
    # The closed side grows like (1 - x z)^(1-n), so the absolute 1e-9
    # comparison is only meaningful for moderate n; clamp the parameter
    # dimension (the identity itself is parameter-independent).
    n = min(max(n, 4), 8)
    nu = float(n - 1)
    lam = 0.5 * n
    xs = np.linspace(-0.95, 0.95, 8)
    zs = (0.0, 0.2, 0.4, 0.6, 0.8)
    factors = []  # per z, one row (ratio_k, z^k) per term; the stop depends on z alone
    for z in zs:
        # the terms are majorized by (nu)_k / k! z^k = C_k^(nu/2)(1) z^k
        k = np.arange(_truncation_degree(0.5 * nu, z, 1e-13) if z else 0)
        ratios = np.cumprod(np.r_[1.0, (nu + k) / (2.0 * lam + k)])  # running products
        factors.append(np.stack((ratios, np.cumprod(np.r_[1.0, np.full(k.size, z)])), axis=1)[:, :, None])
    # the Gegenbauer values at every x, up to the largest degree any z needs
    values = np.concatenate(list(gegenbauer_iter(lam, xs, stop=max(map(len, factors)) - 1)))
    # each term as ratio * C * z^k, in that order
    partials = [[math.fsum(row) for row in (f[:, 0] * values[: len(f)] * f[:, 1]).T.tolist()] for f in factors]
    cases = [(x, z, partials[j][i]) for i, x in enumerate(xs) for j, z in enumerate(zs)]
    args = [z * z * (x * x - 1.0) / (1.0 - x * z) ** 2 for x, z, _ in cases]
    f_vals = hyp2f1(HypergeometricInput(0.5 * nu, 0.5 * (nu + 1.0), lam + 0.5, args))
    errors = []
    for (x, z, partial), f_val in zip(cases, f_vals):
        closed = 1.0 if z == 0.0 else (1.0 - x * z) ** (-nu) * f_val
        errors.append((abs(partial - closed), f"n={n},x={x:.2f},z={z}"))
    return worst_error_check("rainville_expansion", errors, 1e-9)


def _pfaff_check(n: int) -> CheckResult:
    params = [(1.0, 0.5 * n, 0.5 * (n + 1.0)), (0.5, 1.5, 2.5), (2.0, 1.0, 3.5)]
    cases = [(a, b, c, z) for a, b, c in params for z in np.linspace(0.0, 0.9, 10)]
    # every left side, then every transformed side, in one call
    rows = [(a, b, c, float(z)) for a, b, c, z in cases] + [
        (c - a, b, c, float(z / (z - 1.0))) for a, b, c, z in cases
    ]
    values = hyp2f1(HypergeometricInput(*zip(*rows)))
    errors = []
    for (a, b, c, z), lhs, image in zip(cases, values, values[len(cases) :]):
        rhs = lhs if z == 0.0 else (1.0 - z) ** (-b) * image
        errors.append((abs(lhs - rhs) / abs(lhs), f"a={a},b={b},c={c},z={z:.2f}"))
    return worst_error_check("pfaff_transformation", errors, 1e-12)


def _contiguous_check(n: int) -> CheckResult:
    a, b, c = 1.0, 0.5 * n, 0.5 * (n + 1.0)
    zs = np.linspace(0.05, 0.9, 9).tolist()
    rows = [row for z in zs for row in ((a, b, c + 1.0, z), (a - 1.0, b, c, z), (a, b, c, z))]
    tight = 1e-15  # the two sides cancel near z = 1, so sum well past the check tolerance
    values = hyp2f1(HypergeometricInput(*zip(*rows)), tight)
    errors = []
    for i, z in enumerate(zs):
        raised, lowered, plain = values[3 * i : 3 * i + 3]
        lhs = (c - b) * z * raised
        rhs = c * lowered - c * (1.0 - z) * plain
        errors.append((abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0), f"z={z:.2f}"))
    return worst_error_check("contiguous_relation", errors, 1e-12)


def _kernel_moment_quadrature(cases):
    """Brute-force :func:`abs_kernel_coefficient` for each (lam, k, s) in
    ``cases``, as the groups of one :func:`quadrature.kink_integrals` call
    under ``quadrature.DEFAULT_SPEC``.  Returns an :class:`Evaluation` of two
    arrays, one value and one estimate per case.

    In theta = arccos x the moment is the integral over [0, pi] of
    |cos theta - s| C_k^lam(cos theta) sin(theta)^(2 lam), cut at its kink."""
    lam, k, s = (np.array(column, dtype=float) for column in zip(*cases))
    degree = k.astype(int)

    def g(theta, group):
        t = np.cos(theta)
        row_lam = lam[group][:, None]
        gegenbauer = _gegenbauer(row_lam, degree[group][:, None], t)
        return np.abs(t - s[group][:, None]) * gegenbauer * np.sin(theta) ** (2.0 * row_lam)

    return quadrature.kink_integrals(g, s)


def _kernel_moment_check(n: int) -> CheckResult:
    lams = sorted({0.5, 1.5, 0.5 * (n - 2)})
    ks, kinks = np.repeat(np.arange(2, 11), 5), np.tile(np.linspace(-0.8, 0.8, 5), 9)
    cases = [(lam, k, s) for lam in lams for k, s in zip(ks.tolist(), kinks.tolist())]
    brute = _kernel_moment_quadrature(cases).value
    # one closed-form call per parameter, over all its degrees and kinks
    closed = [value for lam in lams for value in abs_kernel_coefficient(lam, ks, kinks)]
    errors = [
        (abs(value - oracle), f"lam={lam},k={k},s={s:.2f}")
        for (lam, k, s), value, oracle in zip(cases, closed, brute.tolist())
    ]
    return worst_error_check("kernel_moment_closed_form", errors, 1e-9)


def _weighted_derivative_check(n: int) -> CheckResult:
    errors = []
    h = 1e-5
    ks, xs = np.repeat(np.arange(6), 5), np.tile(np.linspace(-0.8, 0.8, 5), 6)
    for lam in sorted({0.5, 2.0, 3.0, 0.5 * (n - 2)} - {1.0}):  # the identity excludes lam = 1
        values = gegenbauer_weighted_derivative(lam, ks, xs)
        # the weighted polynomial at every x + h, then at every x - h
        t = np.concatenate((xs + h, xs - h))
        weighted = (_pow_each(1.0 - t * t, lam - 0.5) * _gegenbauer(lam, np.tile(ks, 2), t)).tolist()
        for k, x, val, ahead, behind in zip(ks.tolist(), xs.tolist(), values, weighted, weighted[xs.size :]):
            fd = (ahead - behind) / (2.0 * h)
            errors.append((abs(val - fd) / max(abs(val), abs(fd), 1e-12), f"lam={lam},k={k},x={x:.2f}"))
    return worst_error_check("weighted_derivative_identity", errors, 1e-6)


def _hyp_derivative_check(n: int) -> CheckResult:
    params = [(1.0, 0.5 * n, 0.5 * (n + 1.0)), (2.0, 1.5, 3.0)]
    cases = [(a, b, c, z) for a, b, c in params for z in (0.1, 0.25, 0.4, 0.55, 0.7)]
    h = 1e-6
    # per case: 2F1 at z + h and z - h, and the lowered 2F1 at z
    rows = [row for a, b, c, z in cases for row in ((a, b, c, z + h), (a, b, c, z - h), (a - 1.0, b, c, z))]
    values = hyp2f1(HypergeometricInput(*zip(*rows)))
    errors = []
    for i, (a, b, c, z) in enumerate(cases):
        ahead, behind, lowered = values[3 * i : 3 * i + 3]

        def lhs(t, f_val):
            return t ** (c - a) * (1.0 - t) ** (a + b - c) * f_val

        fd = (lhs(z + h, ahead) - lhs(z - h, behind)) / (2.0 * h)
        rhs = (c - a) * z ** (c - a - 1.0) * (1.0 - z) ** (a + b - c - 1.0) * lowered
        errors.append((abs(fd - rhs) / max(abs(rhs), 1e-12), f"a={a},b={b},c={c},z={z}"))
    return worst_error_check("hypergeometric_derivative_identity", errors, 1e-6)


def verify_identities(n: int) -> VerificationReport:
    """Run the classical-identity sweeps at dimension ``n`` where one enters."""
    n = check_dim(n, 3)
    checks = (
        _generating_relation_check(),
        _rainville_check(n),
        _pfaff_check(n),
        _contiguous_check(n),
        _kernel_moment_check(n),
        _weighted_derivative_check(n),
        _hyp_derivative_check(n),
    )
    return VerificationReport("identities", n, checks)
