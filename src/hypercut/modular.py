"""Exact arithmetic for the modular group and its principal congruence
quotients: fundamental-domain reduction, cosets mod q, distance on the
quotient via certified enumeration, injectivity radii, uniform sampling,
and random permutation covers of the level-2 free subgroup.

Conventions.  A point of the level-q quotient is a pair (base, sheet): the
base lies in the standard fundamental domain |x| <= 1/2, |z| >= 1 and the
sheet is a coset mod q.  The underlying half-plane point is (any integer
lift of the sheet) applied to the base, so the distance between (z1, c1)
and (z2, c2) is

    min d(z1, g z2)  over integer g congruent to c1^{-1} c2 mod q,

and the enumeration is complete for all g with
cosh d(i, g i) = (a^2+b^2+c^2+d^2)/2 below the certified cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError, ConfigError, DegeneracyError
from .geometry import (ORIGIN, PointH, cosh_distance_minus_1, distance,
                       inverse_ball_radius)
from .quadrature import spans

FUNDAMENTAL_TOL = 1e-12
MODULAR_AREA = math.pi / 3.0
# the largest u = 1/y on the standard fundamental domain, at its corners
U_TOP = 2.0 / math.sqrt(3.0)
_Q_CAP = 101
_ENUM_BOUND_CAP = 14.5
# Disc pairs per build chunk and elements per decode or labelling block of
# PSLZEnumeration: its temporaries stay a few MB while the arrays it keeps
# grow like e^bound.
_ENUM_PAIRS = 1 << 14
_ENUM_BLOCK = 1 << 14
# the most passes reduce_points_arrays makes before it gives up
REDUCE_MAX_PASSES = 400


@dataclass(frozen=True)
class CosetModQ:
    """A residue class in the level-q cover group (projective, canonical
    representative = lexicographically smaller of the two signs mod q)."""

    q: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        q = self.q
        if q < 1:
            raise ValueError("modulus must be >= 1")
        a, b, c, d = map(int, self.key())
        if (a * d - b * c) % q != 1 % q:
            raise ValueError("determinant must be 1 mod q")
        for name, v in zip("abcd", _digits(_coset_codes(q, a, b, c, d), q)):
            object.__setattr__(self, name, v)

    @classmethod
    def identity(cls, q: int) -> "CosetModQ":
        return cls(q, 1, 0, 0, 1)

    def mul(self, other: "CosetModQ") -> "CosetModQ":
        return CosetModQ(self.q, *_mul(self.key(), other.key()))

    def key(self) -> tuple:
        return (self.a, self.b, self.c, self.d)


def psl2q_order(q: int) -> int:
    """|PSL_2(Z/q)| = q^3 prod_{p | q} (1 - p^-2), halved for q > 2."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    order = q ** 3
    n, p = q, 2
    while p * p <= n:
        if n % p == 0:
            order = order // (p * p) * (p * p - 1)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        order = order // (n * n) * (n * n - 1)
    return order // 2 if q > 2 else order


def _packing(bound_cap: float, q_cap: int) -> tuple[int, int]:
    """(offset, bits) of PSLZEnumeration's packed sort key under these
    caps: an entry is at most sqrt(2 cosh(bound_cap)) in absolute value,
    so offset by ``offset`` it fits in ``bits`` bits, and the four entries
    pack into one int64 key that orders rows like np.lexsort.  Raises
    CapacityError if a cap would overflow what the enumeration stores:
    int32 norms, int16 entries, int32 coset labels or the 63-bit key."""
    norm_cap = 2.0 * math.cosh(bound_cap)
    entry_cap = math.isqrt(int(norm_cap))
    if norm_cap >= 2 ** 31:
        raise CapacityError(f"norm cap {norm_cap:.4g} overflows int32")
    if entry_cap >= 2 ** 15:
        raise CapacityError(f"entry bound {entry_cap} overflows int16")
    if psl2q_order(q_cap) >= 2 ** 31:
        raise CapacityError(f"cosets mod {q_cap} overflow int32 labels")
    bits = (2 * entry_cap + 2).bit_length()
    if 4 * bits > 63:
        raise CapacityError("packed enumeration sort key needs over 63 bits")
    return entry_cap + 1, bits


_ENTRY_OFFSET, _ENTRY_BITS = _packing(_ENUM_BOUND_CAP, _Q_CAP)


def _ext_gcd(a: np.ndarray, b: np.ndarray):
    """Extended Euclid on int64 arrays: (g, s, t) with a*s + b*t = g,
    floor-dividing as Python's // does."""
    r0, r1 = a.copy(), b.copy()
    s0, s1 = np.ones_like(a), np.zeros_like(a)
    t0, t1 = np.zeros_like(a), np.ones_like(a)
    live = np.flatnonzero(r1)
    while live.size:
        quo = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - quo * r1[live]
        s0[live], s1[live] = s1[live], s0[live] - quo * s1[live]
        t0[live], t1[live] = t1[live], t0[live] - quo * t1[live]
        live = live[r1[live] != 0]
    return r0, s0, t0


def _mul(g, h):
    """Matrix product g h of 2x2 integer matrices given as (a, b, c, d),
    elementwise over arrays."""
    a1, b1, c1, d1 = g
    a2, b2, c2, d2 = h
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _inv(g):
    a, b, c, d = g
    return d, -b, -c, a


def _coset_codes(q: int, a, b, c, d):
    """Base-q code of the canonical representative of each (a, b, c, d) mod
    q.  Digits lie in [0, q), so code order is CosetModQ's lexicographic
    key order and the canonical sign is the one with the smaller code,
    taken without np.minimum so that Python ints stay exact at any q."""
    pos = ((a % q * q + b % q) * q + c % q) * q + d % q
    neg = ((-a % q * q + -b % q) * q + -c % q) * q + -d % q
    return pos + (neg < pos) * (neg - pos)


def _digits(code, q: int):
    """The (a, b, c, d) residues of base-q codes, arrays or Python ints."""
    return code // q ** 3, code // q ** 2 % q, code // q % q, code % q


def check_level(q: int) -> None:
    """Refuse a level whose cover group ModQContext does not build."""
    if not 1 <= q <= _Q_CAP:
        raise CapacityError(f"modulus {q} outside supported range "
                            f"[1, {_Q_CAP}]")


class ModQContext:
    """Enumeration and multiplication tables for the level-q cover group.

    The group is held as the sorted array ``codes`` of base-q codes of its
    canonical representatives; element i is the one with code codes[i].
    """

    def __init__(self, q: int):
        check_level(q)
        self.q = q
        self.codes = self._enumerate(q)
        self.size = int(self.codes.size)
        if self.size != psl2q_order(q):
            raise AssertionError("enumeration disagrees with the closed form")
        self._t_pow = None
        self._s_right = None

    @staticmethod
    def _enumerate(q: int) -> np.ndarray:
        """Codes of every coset: each first column (a, c) with
        gcd(a, c, q) = 1, completed by all q points of its completion line."""
        a, c = np.divmod(np.arange(q * q, dtype=np.int64), q)
        keep = np.gcd(np.gcd(a, c), q) == 1
        a, c = a[keep], c[keep]
        g, x, y = _ext_gcd(a, c)
        inverse = np.array([pow(k, -1, q) if math.gcd(k, q) == 1 else 0
                            for k in range(q)], dtype=np.int64)
        ginv = inverse[g % q]
        t = np.arange(q, dtype=np.int64)[:, None]
        return np.unique(_coset_codes(q, a, -y * ginv + t * a, c,
                                      x * ginv + t * c))

    def labels(self, a, b, c, d) -> np.ndarray:
        """Coset index of each integer matrix (a, b, c, d), entries given
        as arrays or ints of any sign; ValueError unless det = 1 mod q."""
        code = _coset_codes(self.q, *(np.asarray(v, dtype=np.int64)
                                      for v in (a, b, c, d)))
        idx = np.searchsorted(self.codes, code)
        if not np.array_equal(self.codes[np.minimum(idx, self.size - 1)],
                              code):
            raise ValueError("determinant must be 1 mod q")
        return idx

    def rows(self, idx=slice(None)):
        """(a, b, c, d) residue arrays of the elements at idx."""
        return _digits(self.codes[idx], self.q)

    @cached_property
    def elements(self) -> list[CosetModQ]:
        return [CosetModQ(self.q, *row)
                for row in zip(*(r.tolist() for r in self.rows()))]

    @cached_property
    def index(self) -> dict:
        return {e.key(): i for i, e in enumerate(self.elements)}

    def _right_mul_table(self, g) -> np.ndarray:
        return self.labels(*_mul(self.rows(), g))

    @property
    def t_pow_tables(self) -> np.ndarray:
        """t_pow_tables[n, i] = index of elements[i] * T^n, n mod q."""
        if self._t_pow is None:
            tables = np.empty((self.q, self.size), dtype=np.int64)
            tables[0] = np.arange(self.size)
            t1 = self._right_mul_table((1, 1, 0, 1))
            for n in range(1, self.q):
                tables[n] = t1[tables[n - 1]]
            self._t_pow = tables
        return self._t_pow

    @property
    def s_right_table(self) -> np.ndarray:
        """s_right_table[i] = index of elements[i] * S."""
        if self._s_right is None:
            self._s_right = self._right_mul_table((0, -1, 1, 0))
        return self._s_right


@lru_cache(maxsize=16)
def modq_context(q: int) -> ModQContext:
    return ModQContext(q)


def quotient_volume(q: int) -> float:
    """mu(X_q) = N_q * pi/3."""
    return psl2q_order(q) * MODULAR_AREA


def quotient_R(q: int) -> float:
    """Radius of the ball whose area equals mu(X_q)."""
    return inverse_ball_radius(quotient_volume(q))


@dataclass(frozen=True)
class QuotientPoint:
    """(fundamental-domain point, sheet) pair representing a quotient point."""

    base: PointH
    sheet: CosetModQ

    def __post_init__(self):
        if not in_fundamental_domain(self.base.x, self.base.y):
            raise ValueError("base point outside the fundamental domain")

    @property
    def q(self) -> int:
        return self.sheet.q

    @property
    def label(self) -> int:
        """The sheet's index in the level-q cover group."""
        return int(modq_context(self.q).labels(*self.sheet.key()))


def in_fundamental_domain(x: float, y: float) -> bool:
    return (abs(x) <= 0.5 + FUNDAMENTAL_TOL
            and x * x + y * y >= 1.0 - FUNDAMENTAL_TOL)


def reduce_points_arrays(x, y, sheets, ctx: ModQContext):
    """Vectorized reduction of coordinate arrays with sheet bookkeeping.

    Sheets are indices into ctx.elements; every T/S move applied to a point
    multiplies its sheet on the right by the inverse move, so the pair keeps
    representing the same quotient point.

    A pass that neither translates nor inverts a point leaves it as it was,
    and so would every later pass.  A point that a pass does not invert is
    such a point at the next pass as soon as its next translation n is 0:
    its n2 comes out as before.  So each pass ends by computing the next
    pass's n and carries on only the points it inverted or must translate.
    The last of REDUCE_MAX_PASSES passes may end that way only if it
    translated no point, so DegeneracyError is raised exactly when a
    pass-by-pass loop over every point would still move one at the last
    pass.  A translation by n = 0 and a T^0 sheet lookup are the identity,
    so they run on every carried point without a mask.
    """
    shape = np.shape(x)
    x = np.array(x, dtype=float).ravel()
    y = np.array(y, dtype=float).ravel()
    sheets = np.array(sheets, dtype=np.int64).ravel()
    t_pow = ctx.t_pow_tables.ravel()
    s_right = ctx.s_right_table
    ax, ay, asheets = x, y, sheets   # the points still moving
    at = None                        # their positions; None while all are
    n = np.floor(x + 0.5)
    for passes_left in range(REDUCE_MAX_PASSES, 0, -1):
        ax -= n
        # the exact int64 residue n % q, as n - (n // q) q: a float modulus
        # is wrong once |n| >= 2**53 / q, and integer % is 4x slower
        n_int = n.astype(np.int64)
        n_int -= n_int // ctx.q * ctx.q
        asheets = t_pow.take(n_int * ctx.size + asheets)
        n2 = ax * ax + ay * ay
        i = np.flatnonzero(n2 < 1.0 - 1e-15)
        n2_i = n2.take(i)
        ax[i] = -ax.take(i) / n2_i
        ay[i] = ay.take(i) / n2_i
        asheets[i] = s_right.take(asheets.take(i))
        if at is None:
            sheets = asheets
        else:
            x[at], y[at], sheets[at] = ax, ay, asheets
        n_next = np.floor(ax + 0.5)
        go = n_next != 0.0
        go[i] = True
        keep = np.flatnonzero(go)
        if keep.size == 0 and (passes_left > 1 or not n.any()):
            return x.reshape(shape), y.reshape(shape), sheets.reshape(shape)
        at = keep if at is None else at.take(keep)
        ax, ay, asheets, n = (a.take(keep) for a in (ax, ay, asheets, n_next))
    raise DegeneracyError("vectorized reduction hit iteration cap")


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray):
    """(row, value) pairs of the concatenated ranges
    starts[row] .. starts[row] + counts[row] - 1."""
    row = np.repeat(np.arange(counts.size), counts)
    offset = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts,
                                             counts)
    return row, starts[row] + offset


class PSLZEnumeration:
    """All projective integer matrices with Frobenius norm^2 <= 2 cosh(bound),
    i.e. all g with d(i, g i) <= bound, as an (n, 4) int16 table of rows
    (a, b, c, d) and their int32 Frobenius norms^2.

    Built by exhausting coprime first columns and the integer line of
    completions, so completeness needs no connectivity argument.  The rows
    a of first columns are worked through in spans of whole rows, as many
    as fit _ENUM_PAIRS disc pairs at the width of the widest row a = 0 (one
    row at least), each keeping only the packed sort keys of its elements;
    the keys are then sorted and decoded _ENUM_BLOCK elements at a time,
    each key's 8 bytes into its own row's four int16 entries.
    """

    def __init__(self, bound: float):
        _check_bound(bound)
        self.bound = bound
        cap = 2.0 * math.cosh(bound)
        c_caps = np.array([math.isqrt(int(cap - a * a))
                           for a in range(math.isqrt(int(cap)) + 1)],
                          dtype=np.int64)
        rows_per_chunk = max(1, _ENUM_PAIRS // (2 * int(c_caps[0]) + 1))
        keys = np.concatenate([_packed_keys(cap, rows.start, c_caps[rows])
                               for rows in spans(c_caps.size,
                                                 rows_per_chunk)])
        keys.sort()
        self.size = int(keys.size)
        # row i is the bytes of key i, so decoding a block of keys before
        # writing it back overwrites no key still to be read
        self.entries = keys.view(np.int16).reshape(self.size, 4)
        self.a, self.b, self.c, self.d = self.entries.T
        self.norm2 = np.empty(self.size, dtype=np.int32)
        mask = (1 << _ENTRY_BITS) - 1
        for s in spans(self.size, _ENUM_BLOCK):
            a, b, c, d = ((keys[s] >> (k * _ENTRY_BITS) & mask)
                          - _ENTRY_OFFSET for k in (3, 2, 1, 0))
            self.norm2[s] = a * a + b * b + c * c + d * d
            self.a[s], self.b[s], self.c[s], self.d[s] = a, b, c, d
        self._members: dict[int, tuple[np.ndarray, ...]] = {}

    def coset_labels(self, q: int) -> np.ndarray:
        """Coset index mod q of every element; also files each coset's
        members in ascending Frobenius norm for members_of."""
        if q not in self._members:
            ctx = modq_context(q)
            # one int64 key per element, (label, norm2, index) from the top
            # bits down; under the caps labels < 2^19, norm2 < 2^21 and
            # indices < 2^23 fill 63 bits, which _member_shift checks.  The
            # keys are unique, so an in-place sort orders the elements as a
            # stable argsort of (label, norm2) would, without its int64
            # index array and merge buffer
            span = int(self.norm2.max(initial=0)) + 1
            shift = _member_shift(self.size, ctx.size, span)
            labels = np.empty(self.size, dtype=np.int32)
            keys = np.empty(self.size, dtype=np.int64)
            for s in spans(self.size, _ENUM_BLOCK):
                label = ctx.labels(*self.entries[s].T)
                labels[s] = label
                keys[s] = ((label * span + self.norm2[s]) << shift
                           | np.arange(s.start, s.stop))
            keys.sort()
            keys &= (1 << shift) - 1
            order = keys.astype(np.int32)
            del keys  # before bincount copies the labels to int64
            starts = np.zeros(ctx.size + 1, dtype=np.int64)
            np.cumsum(np.bincount(labels, minlength=ctx.size),
                      out=starts[1:])
            self._members[q] = (labels, order, starts)
        return self._members[q][0]

    def members_of(self, q: int, coset_id: int) -> np.ndarray:
        """Indices of the coset's members, in ascending Frobenius norm."""
        self.coset_labels(q)
        _, order, starts = self._members[q]
        return order[starts[coset_id]:starts[coset_id + 1]]


def _member_shift(n: int, cosets: int, span: int) -> int:
    """Bits of the element index in coset_labels' member sort key, for n
    elements in ``cosets`` cosets with norms^2 below ``span``; raises
    CapacityError unless the indices fit int32 and the key 63 bits."""
    shift = (n - 1).bit_length()
    if n > 2 ** 31 or (cosets * span) << shift > 2 ** 63:
        raise CapacityError(f"{n} elements with norm^2 below {span} in "
                            f"{cosets} cosets overflow the member sort key")
    return shift


def _check_bound(bound: float) -> None:
    """Refuse a negative, non-finite or over-cap enumeration bound before
    anything is allocated (cosh is even, so -b would pass for b)."""
    if not 0.0 <= bound < math.inf:
        raise ConfigError(
            f"enumeration bound must be finite and >= 0, not {bound}")
    if bound > _ENUM_BOUND_CAP:
        raise CapacityError(
            f"enumeration bound {bound:.3f} exceeds cap {_ENUM_BOUND_CAP}"
            " (element count grows like e^bound)")


def _packed_keys(cap: float, a0: int, c_caps: np.ndarray) -> np.ndarray:
    """Packed sort keys of the enumerated elements whose first column
    (a, c) lies in the rows a = a0, a0 + 1, ..., |c| <= c_caps[a - a0]."""
    # every first column (a, c) with a >= 0 inside the disc, one sign of
    # (0, +-1), coprime
    a, c = _ragged_ranges(-c_caps, 2 * c_caps + 1)
    a += a0
    keep = ((a > 0) | (c > 0)) & (np.gcd(a, c) == 1)
    a, c = a[keep], c[keep]
    g, x, y = _ext_gcd(a, c)
    # a*d - c*b = 1 with (d, b) = (x, -y) scaled by 1/g = +-1; the
    # completions (b0 + t a, d0 + t c) have norm quadratic in t
    d0, b0 = x * g, -y * g
    aa = a * a + c * c
    beta = a * b0 + c * d0
    disc = beta * beta - aa * (b0 * b0 + d0 * d0 - (cap - aa))
    sq = np.sqrt(np.maximum(disc, 0.0))
    # one spare t on each side absorbs rounding in the roots; the exact
    # integer norm test below decides membership
    t_lo = np.ceil((-beta - sq) / aa).astype(np.int64) - 1
    t_hi = np.floor((-beta + sq) / aa).astype(np.int64) + 1
    col, t = _ragged_ranges(t_lo, t_hi - t_lo + 1)
    a, c = a[col], c[col]
    b, d = b0[col] + t * a, d0[col] + t * c
    keep = a * a + b * b + c * c + d * d <= cap
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    # canonical sign: first nonzero entry positive (a >= 0 already)
    flip = np.where((a == 0) & (b < 0), -1, 1)
    key = a + _ENTRY_OFFSET
    for v in (b, c, d):
        key = (key << _ENTRY_BITS) | (v * flip + _ENTRY_OFFSET)
    return key


@lru_cache(maxsize=8)
def _enumeration(bound_key: int) -> PSLZEnumeration:
    return PSLZEnumeration(bound_key / 4.0)


def get_enumeration(bound: float) -> PSLZEnumeration:
    """Shared enumeration covering at least the requested bound (quantized
    upward to quarter units so repeated queries reuse the cache)."""
    _check_bound(bound)
    return _enumeration(math.ceil(bound * 4.0))


# members x samples cells per block of the distance kernel
_BLOCK_CELLS = 1 << 12
# distance slack covering rounding in the pruning and radius bounds
_PRUNE_SLACK = 1e-6


def _qarg(a, b, c, d, x1, y1, x2, y2):
    """cosh d(z1, g z2) - 1 for g = (a, b, c, d); broadcasts."""
    den2 = (c * x2 + d) ** 2 + (c * y2) ** 2
    wx = ((a * x2 + b) * (c * x2 + d) + a * c * y2 * y2) / den2
    return cosh_distance_minus_1(x1, y1, wx, y2 / den2)


def quotient_distance_pairs(q: int, xs1, ys1, sheets1, xs2, ys2, sheets2,
                            r_max: float,
                            enum: PSLZEnumeration | None = None) -> np.ndarray:
    """The one quotient-distance kernel.  Pair j joins (xs1, ys1) on sheet
    sheets1 to (xs2, ys2) on sheets2: sheets are indices into the level-q
    cover group, and all arguments are arrays or scalars broadcast together.
    Its distance is acosh(1 + min qarg) over the enumerated members of the
    relative coset sheets1^-1 sheets2, or inf beyond r_max.

    Samples are grouped by relative coset, and each coset's members are
    walked in ascending Frobenius norm in (members x samples) blocks of at
    most _BLOCK_CELLS cells.  A sample drops out once the next member's
    norm exceeds 2 cosh(D + d(i, z1) + d(i, z2) + slack), D its running
    minimum distance capped at r_max: by the triangle inequality
    d(z1, g z2) >= d(i, g i) - d(i, z1) - d(i, z2), so no later member
    beats the minimum, and none comes within r_max.
    """
    ctx = modq_context(q)
    x1, y1, x2, y2 = np.broadcast_arrays(
        *(np.array(v, dtype=float, ndmin=1) for v in (xs1, ys1, xs2, ys2)))
    best = np.full(x1.shape, math.inf)
    if best.size == 0:
        return best
    rows1, rows2 = (ctx.rows(np.asarray(s, dtype=np.int64))
                    for s in (sheets1, sheets2))
    targets = np.broadcast_to(ctx.labels(*_mul(_inv(rows1), rows2)),
                              best.shape)
    dorig1, dorig2 = (np.arccosh(1.0 + cosh_distance_minus_1(0.0, 1.0, x, y))
                      for x, y in ((x1, y1), (x2, y2)))
    need = r_max + float(dorig1.max()) + float(dorig2.max())
    if enum is None or enum.bound < need:
        enum = get_enumeration(need)
    reach = dorig1 + dorig2 + _PRUNE_SLACK
    order = np.argsort(targets, kind="stable")
    cuts = np.flatnonzero(np.diff(targets[order])) + 1
    for group in np.split(order, cuts):
        members = enum.members_of(q, int(targets[group[0]]))
        norms = enum.norm2[members]
        active, lo = group, 0
        while lo < members.size:
            dmin = np.minimum(np.arccosh(1.0 + best[active]), r_max)
            limit = 2.0 * np.cosh(dmin + reach[active])
            keep = norms[lo] <= limit
            active, limit = active[keep], limit[keep]
            if active.size == 0:
                break
            hi = min(int(np.searchsorted(norms, limit.max(), "right")),
                     lo + max(1, _BLOCK_CELLS // active.size))
            # widened before any product, which int16 would overflow; in
            # float64 a * c (below 2^21) is exact, so no bit moves
            g = enum.entries[members[lo:hi]].T[:, :, None].astype(float)
            qarg = _qarg(*g, x1[active], y1[active], x2[active], y2[active])
            best[active] = np.minimum(best[active], qarg.min(axis=0))
            lo = hi
    dist = np.array([math.acosh(1.0 + v) for v in best.ravel().tolist()])
    return np.where(dist <= r_max, dist, math.inf).reshape(best.shape)


def quotient_distances_from(p0: QuotientPoint, xs, ys, sheet_ids,
                            r_max: float) -> np.ndarray:
    """Distances from a fixed point to many (x, y, sheet-index) samples;
    entries beyond r_max come back as inf."""
    return quotient_distance_pairs(p0.q, p0.base.x, p0.base.y, p0.label,
                                   xs, ys, sheet_ids, r_max)


def quotient_distance(p1: QuotientPoint, p2: QuotientPoint,
                      r_max: float) -> float:
    """Distance on the level-q quotient, or math.inf when it exceeds r_max.

    The returned value is the exact minimum over the certified enumeration;
    a CapacityError names the enumeration bound that would be needed.
    """
    if p1.q != p2.q:
        raise ValueError("points live on different quotients")
    return float(quotient_distances_from(p1, p2.base.x, p2.base.y, p2.label,
                                         r_max)[0])


def injectivity_radius(p: QuotientPoint) -> float:
    """Half the smallest displacement of the base point z = x + iy under
    the level-q elements that move it.

    T^q = [[1, q], [0, 1]] lies in the level-q group and moves z by exactly
    2 asinh(q / 2y), so the minimum is at most that.  Any g moving z that
    little has d(i, g i) <= 2 asinh(q / 2y) + 2 d(i, z), and the enumeration
    is complete below that bound (plus a slack for rounding in its norm
    cap), so the value is certified and finite.  Torsion elements fixing
    the point, the identity included, contribute distance 0 and are
    excluded.
    """
    z = p.base
    q = p.q
    enum = get_enumeration(2.0 * math.asinh(q / (2.0 * z.y))
                           + 2.0 * distance(ORIGIN, z) + _PRUNE_SLACK)
    ctx = modq_context(q)
    g = enum.entries[enum.members_of(q, int(ctx.labels(1, 0, 0, 1)))]
    dists = np.arccosh(1.0 + _qarg(*g.T.astype(float), z.x, z.y, z.x, z.y))
    fixing = dists < 1e-9
    return float(dists[~fixing].min()) / 2.0


def truncated_domain_fraction(cusp_cap: float) -> float:
    """Fraction of the base-domain area above the cusp cap: (1/Y)/(pi/3),
    since mu{y > Y} inside the domain strip is exactly 1/Y."""
    return (1.0 / cusp_cap) / MODULAR_AREA


def check_cusp_cap(cusp_cap: float) -> None:
    if not 2.0 <= cusp_cap < math.inf:
        raise ConfigError("cusp cap must be finite and >= 2")


def check_sampled_bound(p0: QuotientPoint, r_max: float,
                        cusp_cap: float) -> None:
    """Refuse, before anything is drawn, a bound r_max + d(i, p0) + d(i, c)
    past the cap: c = 1/2 + Y i is the domain point below Y farthest from i."""
    check_cusp_cap(cusp_cap)
    corner = math.acosh(1.0 + cosh_distance_minus_1(0.0, 1.0, 0.5, cusp_cap))
    _check_bound(r_max + distance(ORIGIN, p0.base) + corner)


def sample_uniform_quotient(q: int, cusp_cap: float, rng, n: int):
    """n uniform samples of the level-q quotient truncated at height Y, as
    ((x, y, sheet-index) arrays, truncated_fraction).  Bases follow mu on
    the truncated domain, by rejection in the (x, 1/y) strip where mu is
    Lebesgue; their sheets, uniform over the cover group, are drawn after
    them."""
    check_cusp_cap(cusp_cap)
    u_lo = 1.0 / cusp_cap
    xs = np.empty(n)
    us = np.empty(n)
    got = 0
    while got < n:
        m = max(1024, int(1.2 * (n - got)))
        x = rng.uniform(-0.5, 0.5, m)
        u = rng.uniform(u_lo, U_TOP, m)
        ok = u <= 1.0 / np.sqrt(1.0 - x * x)
        take = min(int(ok.sum()), n - got)
        xs[got:got + take] = x[ok][:take]
        us[got:got + take] = u[ok][:take]
        got += take
    sheets = rng.integers(0, psl2q_order(q), n)
    return (xs, 1.0 / us, sheets), truncated_domain_fraction(cusp_cap)


# --- random covers of the level-2 free subgroup -------------------------

@dataclass(frozen=True)
class RandomCover:
    """A degree-n cover of the level-2 quotient, given by the permutations
    attached to the two free generators (0-based images)."""

    n: int
    sigma_a: np.ndarray
    sigma_b: np.ndarray

    def __post_init__(self):
        for s in (self.sigma_a, self.sigma_b):
            if sorted(s.tolist()) != list(range(self.n)):
                raise ValueError("generator images must be permutations")

    def is_transitive(self) -> bool:
        maps = []
        for s in (self.sigma_a, self.sigma_b):
            inverse = np.empty_like(s)
            inverse[s] = np.arange(self.n)
            maps += [s.tolist(), inverse.tolist()]
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for m in maps:
                j = m[i]
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        return len(seen) == self.n


def random_cover(n: int, rng) -> RandomCover:
    """Uniform random degree-n cover: independent uniform permutations for
    the two free generators.  Non-transitive samples are legal (the cover
    is then disconnected) and are only flagged via is_transitive()."""
    if n < 1:
        raise ValueError("need n >= 1")
    return RandomCover(n, rng.permutation(n), rng.permutation(n))
