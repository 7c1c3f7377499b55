import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sstats

from hypercut import modular
from hypercut.errors import CapacityError, ConfigError, DegeneracyError
from hypercut.geometry import PointH, distance, sphere_step_arrays
from hypercut.modular import (CosetModQ, ModQContext, QuotientPoint,
                              RandomCover, PSLZEnumeration, get_enumeration,
                              injectivity_radius, in_fundamental_domain,
                              modq_context, psl2q_order, quotient_R,
                              quotient_distance, quotient_distance_pairs,
                              quotient_distances_from, quotient_volume,
                              reduce_points_arrays,
                              sample_uniform_quotient,
                              truncated_domain_fraction)
from oracles import GroupElement, reduce_fundamental

ORIGIN = PointH(0.0, 1.0)
I1 = CosetModQ.identity(1)


def qpoint(x, y, q=1, sheet=None):
    return QuotientPoint(PointH(x, y),
                         sheet if sheet is not None else CosetModQ.identity(q))


def sample_points(q, cusp_cap, rng, n):
    """n uniform samples of the level-q quotient as QuotientPoints."""
    (xs, ys, sheets), _ = sample_uniform_quotient(q, cusp_cap, rng, n)
    cosets = modq_context(q).elements
    return [QuotientPoint(PointH(float(x), float(y)), cosets[int(s)])
            for x, y, s in zip(xs, ys, sheets)]


class TestGroupElement:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            GroupElement(1, 1, 1, 1)

    def test_projective_canonical_sign(self):
        assert GroupElement(-1, 0, 0, -1) == GroupElement.identity()
        assert GroupElement(0, -1, 1, 0) == GroupElement(0, 1, -1, 0)

    def test_group_ops(self):
        t = GroupElement.translation(3)
        assert t.mul(t.inv()) == GroupElement.identity()
        s = GroupElement.inversion()
        assert s.mul(s) == GroupElement.identity()  # projective order 2

    def test_apply_matches_float_mobius(self):
        g = GroupElement(2, 1, 1, 1)
        z = PointH(0.3, 0.8)
        w = g.apply(z)
        den = complex(z.x, z.y) * 1 + 1  # cz + d with c=1, d=1
        expected = (2 * complex(z.x, z.y) + 1) / den
        assert (w.x, w.y) == pytest.approx((expected.real, expected.imag),
                                           abs=1e-14)

    def test_frobenius_certificate(self):
        # products of translations T^n and the inversion S reach every
        # element; the certificate must hold on long ones
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = GroupElement.identity()
            for _ in range(8):
                g = g.mul(GroupElement.translation(
                    int(rng.integers(-3, 4)) or 1)).mul(
                    GroupElement.inversion())
            assert distance(ORIGIN, g.apply(ORIGIN)) == pytest.approx(
                math.acosh(g.frobenius_norm2 / 2), abs=1e-9)


class TestCosetModQ:
    def test_canonical_projective_rep(self):
        a = CosetModQ(5, 2, 1, 1, 1)
        b = CosetModQ(5, -2, -1, -1, -1)
        assert a == b

    def test_determinant_mod_q(self):
        with pytest.raises(ValueError):
            CosetModQ(5, 1, 0, 0, 2)

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 7, 10 ** 5])
    def test_canonical_sign_is_the_smaller_key(self, q):
        # the rule written out: of the two signs mod q, the lexicographically
        # smaller residue tuple.  At q = 10^5 the base-q codes pass 2^63, so
        # the rule must stay exact on Python ints
        rng = np.random.default_rng(q)
        for _ in range(200):
            a, b, c = (int(v) for v in rng.integers(-3 * q, 3 * q, 3))
            if math.gcd(a, q) != 1:
                continue
            d = (1 + b * c) * pow(a, -1, q)
            pos = tuple(v % q for v in (a, b, c, d))
            neg = tuple(-v % q for v in (a, b, c, d))
            assert CosetModQ(q, a, b, c, d).key() == min(pos, neg)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_group_axioms_exhaustive(self, q):
        elements = modq_context(q).elements
        keys = {e.key() for e in elements}
        for a in elements:
            inv = CosetModQ(q, a.d, -a.b, -a.c, a.a)
            assert inv.key() in keys
            assert a.mul(inv) == CosetModQ.identity(q)
        rng = np.random.default_rng(q)
        idx = rng.integers(0, len(elements), (300, 2))
        for i, j in idx:
            assert elements[i].mul(elements[j]).key() in keys

    def test_order_closed_form(self):
        # |PSL_2(Z/q)| = q^3 prod (1 - p^-2), halved for q > 2
        assert [psl2q_order(q) for q in (1, 2, 3, 4, 5, 6, 7)] == \
            [1, 6, 12, 24, 60, 72, 168]
        for q in (0, -1):
            with pytest.raises(ValueError, match="modulus must be >= 1"):
                psl2q_order(q)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7])
    def test_enumeration_matches_closed_form(self, q):
        ctx = modq_context(q)
        assert ctx.size == psl2q_order(q)
        assert len({e.key() for e in ctx.elements}) == ctx.size

    def test_q2_by_raw_count(self):
        # independent brute force over all 2x2 matrices mod 2
        count = sum(1 for a, b, c, d in itertools.product(range(2), repeat=4)
                    if (a * d - b * c) % 2 == 1)
        assert count == modq_context(2).size

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            modq_context(102)

    def test_order_checked_at_construction(self, monkeypatch):
        # every context certifies its order, not only the ones a test
        # compares with the closed form
        closed = modular.psl2q_order
        monkeypatch.setattr(modular, "psl2q_order", lambda q: closed(q) + 1)
        with pytest.raises(AssertionError, match="closed form"):
            ModQContext(5)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7])
    def test_elements_match_brute_force(self, q):
        # every 2x2 matrix mod q with det 1, canonicalized, in key order
        keys = sorted({CosetModQ(q, *m).key()
                       for m in itertools.product(range(q), repeat=4)
                       if (m[0] * m[3] - m[1] * m[2]) % q == 1 % q})
        assert [e.key() for e in modq_context(q).elements] == keys

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7])
    def test_coset_labels_match_per_element(self, q):
        enum = get_enumeration(6.0)
        ctx = modq_context(q)
        rows = list(zip(enum.a.tolist(), enum.b.tolist(),
                        enum.c.tolist(), enum.d.tolist()))
        expected = np.array([ctx.index[CosetModQ(q, *g).key()]
                             for g in rows])
        assert np.array_equal(enum.coset_labels(q), expected)
        for i in range(0, len(rows), 97):
            assert int(ctx.labels(*rows[i])) == expected[i]
        for cid in range(ctx.size):
            members = enum.members_of(q, cid)
            assert np.array_equal(np.sort(members),
                                  np.flatnonzero(expected == cid))
            assert np.all(np.diff(enum.norm2[members]) >= 0)

    def test_labels_reject_determinant_off_one(self):
        with pytest.raises(ValueError):
            modq_context(5).labels(1, 0, 0, 2)


def brute_force_reduce(z: PointH, depth: int = 40):
    """Independent reduction: greedy alternation of translation and
    inversion on complex numbers, no shared code with the library path."""
    w = complex(z.x, z.y)
    for _ in range(depth):
        n = math.floor(w.real + 0.5)
        w -= n
        if abs(w) < 1.0 - 1e-15:
            w = -1.0 / w
        elif n == 0:
            break
    return w


def reference_reduce_points_arrays(x, y, sheets, ctx, max_iter=400):
    """The reduction as first written: every pass runs over every point,
    with boolean gathers, until one pass moves none.  Kept frozen as the
    reference for reduce_points_arrays."""
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    sheets = np.asarray(sheets, dtype=np.int64).copy()
    t_pow = ctx.t_pow_tables
    s_right = ctx.s_right_table
    for _ in range(max_iter):
        n = np.floor(x + 0.5)
        moved = n != 0.0
        if moved.any():
            x[moved] -= n[moved]
            nmod = (n[moved].astype(np.int64)) % ctx.q
            sheets[moved] = t_pow[nmod, sheets[moved]]
        n2 = x * x + y * y
        inv = n2 < 1.0 - 1e-15
        if not (moved.any() or inv.any()):
            return x, y, sheets
        if inv.any():
            x[inv] = -x[inv] / n2[inv]
            y[inv] = y[inv] / n2[inv]
            sheets[inv] = s_right[sheets[inv]]
    raise DegeneracyError("vectorized reduction hit iteration cap")


def adversarial_points(rng):
    """(x, y) pairs on the edges of the reduction: x on and one ulp either
    side of half-integers, |z|^2 on and around the 1 - 1e-15 inversion
    threshold, |x| up to 1e18 (past 2**53 / q, where a float residue of
    the translation would go wrong) and y from 1e-8 to 1e12."""
    half = np.arange(-6, 7) + 0.5
    xs = np.concatenate([half, np.nextafter(half, np.inf),
                         np.nextafter(half, -np.inf), [0.0, -0.0]])
    ys = np.array([1e-8, 1e-3, 0.5, math.sqrt(3.0) / 2.0, 1.0, 2.0, 1e12])
    grid_x, grid_y = (a.ravel() for a in np.meshgrid(xs, ys))
    xu = np.concatenate([rng.uniform(-0.5, 0.5, 64), [0.0, 0.5, -0.5]])
    rim = []
    for r2 in (1.0 - 1e-15, 1.0):
        yu = np.sqrt(r2 - xu * xu)
        rim += [yu, np.nextafter(yu, 0.0), np.nextafter(yu, 2.0),
                np.nextafter(np.nextafter(yu, 0.0), 0.0)]
    m = 400
    sign = rng.choice([-1.0, 1.0], m)
    far_x = sign * 10 ** rng.uniform(-3, 18, m)
    far_y = 10 ** rng.uniform(-8, 12, m)
    x = np.concatenate([grid_x, np.tile(xu, len(rim)), far_x,
                        rng.uniform(-3, 3, m)])
    y = np.concatenate([grid_y, *rim, far_y, 10 ** rng.uniform(-8, 12, m)])
    return x, y


def same_bits(got, want):
    return all(a.dtype == b.dtype and a.shape == b.shape
               and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def reduce_outcome(fn, x, y, sheets, ctx, **kwargs):
    with np.errstate(all="ignore"):
        try:
            return fn(x, y, sheets, ctx, **kwargs)
        except DegeneracyError:
            return None


class TestReduceFundamental:
    def test_fixed_point(self):
        z, g = reduce_fundamental(ORIGIN)
        assert (z.x, z.y) == (0.0, 1.0)
        assert g == GroupElement.identity()

    def test_translation(self):
        z, g = reduce_fundamental(PointH(5.0, 1.0))
        assert (z.x, z.y) == pytest.approx((0.0, 1.0), abs=1e-15)
        assert g == GroupElement.translation(-5)

    def test_known_deep_point(self):
        z, g = reduce_fundamental(PointH(0.1, 0.1))
        w = brute_force_reduce(PointH(0.1, 0.1))
        assert (z.x, z.y) == pytest.approx((w.real, w.imag), abs=1e-9)
        img = g.apply(PointH(0.1, 0.1))
        assert (img.x, img.y) == pytest.approx((z.x, z.y), abs=1e-9)

    def test_quotient_point_below_the_arc_refused(self):
        with pytest.raises(ValueError, match="outside the fundamental"):
            QuotientPoint(PointH(0.0, 0.5), CosetModQ.identity(2))

    def test_random_points_land_in_domain_with_exact_witness(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            z0 = PointH(rng.uniform(-8, 8), 10 ** rng.uniform(-2, 1))
            z, g = reduce_fundamental(z0)
            assert in_fundamental_domain(z.x, z.y)
            img = g.apply(z0)
            assert (img.x, img.y) == pytest.approx((z.x, z.y), abs=1e-9)
            w = brute_force_reduce(z0)
            assert z.y == pytest.approx(w.imag, abs=1e-9)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(23)
        ctx = modq_context(5)
        x = rng.uniform(-4, 4, 300)
        y = 10 ** rng.uniform(-1.5, 1, 300)
        start = ctx.index[CosetModQ.identity(5).key()]
        sheets = np.full(300, start, dtype=np.int64)
        rx, ry, rs = reduce_points_arrays(x, y, sheets, ctx)
        for i in range(0, 300, 17):
            z, g = reduce_fundamental(PointH(x[i], y[i]))
            assert (rx[i], ry[i]) == pytest.approx((z.x, z.y), abs=1e-9)
            # sheet tracks the inverse reduction word mod q
            expected = CosetModQ(5, g.d, -g.b, -g.c, g.a)
            assert ctx.elements[rs[i]] == expected


    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_matches_frozen_reference_on_adversarial_points(self, q):
        rng = np.random.default_rng(100 + q)
        ctx = modq_context(q)
        x, y = adversarial_points(rng)
        sheets = rng.integers(0, ctx.size, x.size)
        want = reference_reduce_points_arrays(x, y, sheets, ctx)
        assert same_bits(reduce_points_arrays(x, y, sheets, ctx), want)
        # the points that start on the edges are reduced alone as well
        for i in range(0, x.size, 97):
            got = reduce_points_arrays(x[i:i + 1], y[i:i + 1],
                                       sheets[i:i + 1], ctx)
            assert same_bits(got, [a[i:i + 1] for a in want])

    def test_matches_frozen_reference_along_a_walk(self):
        ctx = modq_context(5)
        rng = np.random.default_rng(31)
        x, y = np.zeros(4096), np.ones(4096)
        sheets = np.zeros(4096, dtype=np.int64)
        for _ in range(12):
            x, y = sphere_step_arrays(x, y, 1.0, rng.uniform(0, np.pi, 4096))
            want = reference_reduce_points_arrays(x, y, sheets, ctx)
            got = reduce_points_arrays(x, y, sheets, ctx)
            assert same_bits(got, want)
            x, y, sheets = got

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_as_reference(self, bad):
        ctx = modq_context(3)
        for x, y in ((bad, 2.0), (0.2, bad), (bad, bad), (0.0, 0.0)):
            xs = np.array([x, 0.3, 4.7])
            ys = np.array([y, 0.01, 2.0])
            sheets = np.array([0, 1, 2])
            want = reduce_outcome(reference_reduce_points_arrays, xs, ys,
                                  sheets, ctx)
            got = reduce_outcome(reduce_points_arrays, xs, ys, sheets, ctx)
            assert (got is None) == (want is None)
            if want is not None:
                assert same_bits(got, want)

    def test_degeneracy_error_at_the_same_iteration_cap(self, monkeypatch):
        ctx = modq_context(5)
        rng = np.random.default_rng(41)
        x, y = adversarial_points(rng)
        sheets = rng.integers(0, ctx.size, x.size)
        outcomes = set()
        for max_iter in range(0, 16):
            want = reduce_outcome(reference_reduce_points_arrays, x, y,
                                  sheets, ctx, max_iter=max_iter)
            monkeypatch.setattr(modular, "REDUCE_MAX_PASSES", max_iter)
            got = reduce_outcome(reduce_points_arrays, x, y, sheets, ctx)
            assert (got is None) == (want is None), max_iter
            if want is not None:
                assert same_bits(got, want)
            outcomes.add(want is None)
        assert outcomes == {True, False}
        # a last translation, or a last inversion, needs a pass that
        # confirms it; a point already in the domain needs one pass
        for (px, py), passes in (((3.2, 2.0), 2), ((0.1, 0.5), 2),
                                 ((0.1, 2.0), 1), ((0.3, 0.5), 3)):
            args = (np.array([px]), np.array([py]), np.array([0]), ctx)
            with pytest.raises(DegeneracyError):
                reference_reduce_points_arrays(*args, max_iter=passes - 1)
            monkeypatch.setattr(modular, "REDUCE_MAX_PASSES", passes - 1)
            with pytest.raises(DegeneracyError):
                reduce_points_arrays(*args)
            monkeypatch.setattr(modular, "REDUCE_MAX_PASSES", passes)
            assert same_bits(reduce_points_arrays(*args),
                             reference_reduce_points_arrays(
                                 *args, max_iter=passes))

def reference_enumeration(bound):
    """Frozen copy of the single-pass builder: every candidate of the disc
    at once, then an argsort of the packed keys and five gathers.  Returns
    (a, b, c, d, norm2)."""
    cap = 2.0 * math.cosh(bound)
    c_caps = np.array([math.isqrt(int(cap - a * a))
                       for a in range(math.isqrt(int(cap)) + 1)],
                      dtype=np.int64)
    a, c = modular._ragged_ranges(-c_caps, 2 * c_caps + 1)
    keep = ((a > 0) | (c > 0)) & (np.gcd(a, c) == 1)
    a, c = a[keep], c[keep]
    g, x, y = modular._ext_gcd(a, c)
    d0, b0 = x * g, -y * g
    aa = a * a + c * c
    beta = a * b0 + c * d0
    disc = beta * beta - aa * (b0 * b0 + d0 * d0 - (cap - aa))
    sq = np.sqrt(np.maximum(disc, 0.0))
    t_lo = np.ceil((-beta - sq) / aa).astype(np.int64) - 1
    t_hi = np.floor((-beta + sq) / aa).astype(np.int64) + 1
    col, t = modular._ragged_ranges(t_lo, t_hi - t_lo + 1)
    a, c = a[col], c[col]
    b, d = b0[col] + t * a, d0[col] + t * c
    norm2 = a * a + b * b + c * c + d * d
    keep = norm2 <= cap
    a, b, c, d, norm2 = a[keep], b[keep], c[keep], d[keep], norm2[keep]
    flip = np.where((a == 0) & (b < 0), -1, 1)
    a, b, c, d = a * flip, b * flip, c * flip, d * flip
    key = a + modular._ENTRY_OFFSET
    for v in (b, c, d):
        key = (key << modular._ENTRY_BITS) | (v + modular._ENTRY_OFFSET)
    order = np.argsort(key)
    return a[order], b[order], c[order], d[order], norm2[order]


def reference_coset_members(arrays, q):
    """Frozen copy of the single-pass coset_labels: (labels, order,
    starts), coset i's members being order[starts[i]:starts[i + 1]]."""
    a, b, c, d, norm2 = arrays
    ctx = modq_context(q)
    labels = ctx.labels(a, b, c, d)
    span = int(norm2.max(initial=0)) + 1
    order = np.argsort(labels * span + norm2, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(ctx.size + 1))
    return labels, order, starts


def enumeration_digest(enum):
    h = hashlib.sha256()
    for v in (enum.a, enum.b, enum.c, enum.d, enum.norm2):
        h.update(v.astype("<i8").tobytes())
    return h.hexdigest()


# 2 cosh(RIM_BOUND) = 100.5, just above 10^2: the disc's last row a = 10
# holds the single column (10, 0), which the coprime filter empties
RIM_BOUND = math.acosh(50.25)
# (bound, disc pairs per build chunk, elements per decode and label
# block); None keeps the module's constant.  One-row chunks put an edge
# after the a = 0 row, whose one coprime column is (0, 1); 7 and 64 pairs
# group the short rows at the disc's rim
ENUM_CHUNKINGS = (
    [(b, None, None) for b in (3.0, 8.0, 11.0)]
    + [(b, pairs, 7) for b in (RIM_BOUND, 3.0, 8.0) for pairs in (1, 7, 64)]
    + [(11.0, pairs, 1009) for pairs in (1, 7, 64)])
# sha256 of a, b, c, d and norm2 (little-endian int64, in that order) of
# PSLZEnumeration(14.5) as the single-pass builder made them; at 1 GB of
# peak memory that builder is too large to rerun here
CAP_SIZE = 5_946_834
CAP_DIGEST = ("ce50298039d22c0e3bd572017f0bf9e650d94b360a72e0e2"
              "bb973564fc0db6ac")


class TestEnumeration:
    def test_complete_against_raw_search(self):
        bound = 3.0
        enum = get_enumeration(bound)
        cap = 2.0 * math.cosh(enum.bound)
        found = set()
        lim = int(math.isqrt(int(cap))) + 1
        for a, b, c, d in itertools.product(range(-lim, lim + 1), repeat=4):
            if a * d - b * c == 1 and a * a + b * b + c * c + d * d <= cap:
                e = GroupElement(a, b, c, d)
                found.add((e.a, e.b, e.c, e.d))
        mine = set(zip(enum.a.tolist(), enum.b.tolist(),
                       enum.c.tolist(), enum.d.tolist()))
        assert mine == found

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            get_enumeration(20.0)

    def test_arrays_match_sorted_brute_force_at_bound_8(self):
        # solve a d - b c = 1 for d over every (a, b, c) in the norm ball;
        # shares nothing with the coprime-column construction
        enum = PSLZEnumeration(8.0)
        cap = 2.0 * math.cosh(8.0)
        lim = math.isqrt(int(cap))
        rows = set()
        for a, b in itertools.product(range(-lim, lim + 1), repeat=2):
            if a * a + b * b > cap:
                continue
            for c in range(-lim, lim + 1):
                s = a * a + b * b + c * c
                if s > cap:
                    continue
                if a == 0:
                    ds = range(-lim, lim + 1) if b * c == -1 else ()
                elif (1 + b * c) % a == 0:
                    ds = ((1 + b * c) // a,)
                else:
                    ds = ()
                for d in ds:
                    if s + d * d <= cap:
                        e = GroupElement(a, b, c, d)
                        rows.add((e.a, e.b, e.c, e.d))
        expected = np.array(sorted(rows), dtype=np.int64)
        assert enum.entries.dtype == np.int16
        assert enum.norm2.dtype == np.int32
        assert np.array_equal(enum.entries, expected)
        got = np.stack([enum.a, enum.b, enum.c, enum.d], axis=1)
        assert np.array_equal(got, expected)
        assert np.array_equal(enum.norm2, (expected ** 2).sum(axis=1))

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_packed_key_orders_match_lexsort_at_bound_8(self, q):
        enum = PSLZEnumeration(8.0)
        rows = np.lexsort((enum.d, enum.c, enum.b, enum.a))
        assert np.array_equal(rows, np.arange(enum.size))
        labels = enum.coset_labels(q)
        members = np.concatenate([enum.members_of(q, i)
                                  for i in range(modq_context(q).size)])
        assert np.array_equal(members, np.lexsort((enum.norm2, labels)))


    @pytest.mark.parametrize("bound", [-3.0, math.nan, -math.inf, math.inf])
    def test_negative_or_non_finite_bound_is_config_error(self, bound):
        # cosh is even: -3.0 built the elements of bound 3 and reported
        # bound -3.0; NaN and -inf failed inside math.ceil
        with pytest.raises(ConfigError):
            PSLZEnumeration(bound)
        with pytest.raises(ConfigError):
            get_enumeration(bound)

    @pytest.mark.parametrize("bound, pairs, block", ENUM_CHUNKINGS)
    def test_chunked_build_matches_single_pass(self, monkeypatch, bound,
                                               pairs, block):
        if pairs is not None:
            monkeypatch.setattr(modular, "_ENUM_PAIRS", pairs)
            monkeypatch.setattr(modular, "_ENUM_BLOCK", block)
        enum = PSLZEnumeration(bound)
        want = reference_enumeration(bound)
        assert enum.size == want[0].size
        for got, ref, dtype in zip(
                (enum.a, enum.b, enum.c, enum.d, enum.norm2), want,
                (np.int16,) * 4 + (np.int32,)):
            assert got.dtype == dtype
            assert np.array_equal(got, ref)
        for q in (2, 3, 5):
            labels, order, starts = reference_coset_members(want, q)
            assert enum.coset_labels(q).dtype == np.int32
            assert enum.members_of(q, 0).dtype == np.int32
            assert np.array_equal(enum.coset_labels(q), labels)
            for i in range(starts.size - 1):
                assert np.array_equal(enum.members_of(q, i),
                                      order[starts[i]:starts[i + 1]])

    def test_rim_bound_has_an_emptied_single_column_row(self):
        cap = 2.0 * math.cosh(RIM_BOUND)
        assert math.isqrt(int(cap)) == 10
        assert math.isqrt(int(cap - 100)) == 0

    def test_cap_reproduces_single_pass_digest(self):
        enum = PSLZEnumeration(modular._ENUM_BOUND_CAP)
        assert enum.size == CAP_SIZE
        assert enumeration_digest(enum) == CAP_DIGEST

    def test_build_and_labels_peak_memory(self):
        """Traced peaks of the build and of coset labelling, in bytes per
        element.  The enumeration keeps 12 (int16 entries, int32 norms)
        and each labelled level 8 (int32 labels and member order).  At
        bound 12 (488,114 elements) the build peaked at 18.0 and the
        labelling at 16.2, the int64 chunk keys and member keys with
        about 1 MB of block temporaries; the bounds leave 2 bytes per
        element (about 1 MB) above that."""
        modq_context(5)
        tracemalloc.start()
        try:
            enum = PSLZEnumeration(12.0)
            _, peak = tracemalloc.get_traced_memory()
            n = enum.size
            assert enum.entries.nbytes + enum.norm2.nbytes == 12 * n
            assert peak <= 20 * n
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            enum.coset_labels(5)
            after, peak = tracemalloc.get_traced_memory()
            labels, order, _ = enum._members[5]
            assert labels.nbytes + order.nbytes == 8 * n
            assert peak - before <= 18 * n
        finally:
            tracemalloc.stop()

    def test_build_and_labels_peak_rss_in_a_fresh_process(self):
        """ru_maxrss growth of a fresh process over its post-import
        baseline while it builds PSLZEnumeration(12.0) and labels it mod
        5.  Unlike tracemalloc it sees every allocation, numpy's own
        buffers and the chunk keys the C heap keeps after the build.
        Measured: 35.9 bytes per element (66.1 with int64 storage); the
        bound leaves 6 bytes per element (about 2.9 MB) above that."""
        code = ("import resource\n"
                "from hypercut.modular import PSLZEnumeration, modq_context\n"
                "modq_context(5)\n"
                "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "enum = PSLZEnumeration(12.0)\n"
                "enum.coset_labels(5)\n"
                "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "print(enum.size, (peak - base) * 1024)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(modular.__file__)))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        n, grown = map(int, done.stdout.split())
        assert grown <= 42 * n

    @pytest.mark.parametrize("bound, q, message", [
        (20.2, 101, "63 bits"), (21.0, 101, "int16"),
        (21.9, 101, "norm cap"), (14.5, 2000, "int32 labels")])
    def test_packing_refuses_caps_that_overflow(self, bound, q, message):
        # 2 cosh 20.2 = 5.9e8 needs 16-bit key fields, 2 cosh 21 = 1.3e9
        # entries of 36,000, 2 cosh 21.9 = 3.2e9 norms past 2^31, and
        # |PSL2(Z/2000)| = 2.9e9 labels past 2^31
        with pytest.raises(CapacityError, match=message):
            modular._packing(bound, q)

    def test_keys_fit_at_the_caps(self):
        assert modular._packing(modular._ENUM_BOUND_CAP, modular._Q_CAP) \
            == (modular._ENTRY_OFFSET, modular._ENTRY_BITS)
        # labels < 2^19 times norms^2 < 2^21 leave 23 bits for the index,
        # and the cap's 5,946,834 elements need 23
        cosets = psl2q_order(modular._Q_CAP)
        span = int(2.0 * math.cosh(modular._ENUM_BOUND_CAP)) + 1
        assert modular._member_shift(CAP_SIZE, cosets, span) == 23
        for n, cosets in ((2 ** 23 + 1, cosets), (2 ** 31 + 1, 1)):
            with pytest.raises(CapacityError, match="member sort key"):
                modular._member_shift(n, cosets, span)


class TestQuotientDistance:
    def test_zero_at_same_point(self):
        p = qpoint(0.1, 1.2)
        assert quotient_distance(p, p, 4.0) == 0.0

    def test_q1_known_value(self):
        # min over the whole group of d(i, g 2i) is ln 2 (brute-forced)
        p1 = qpoint(0.0, 1.0)
        p2 = qpoint(0.0, 2.0)
        assert quotient_distance(p1, p2, 6.0) == pytest.approx(
            math.log(2.0), abs=1e-12)

    def test_q2_minimal_displacement_in_identity_coset(self):
        # shortest nontrivial level-2 translation at i is z -> z + 2:
        # acosh(3); the enumeration confirms no shorter conjugate exists
        enum = get_enumeration(8.0)
        ctx = modq_context(2)
        idx = enum.members_of(2, ctx.index[CosetModQ.identity(2).key()])
        keep = ~((enum.a[idx] == 1) & (enum.b[idx] == 0)
                 & (enum.c[idx] == 0) & (enum.d[idx] == 1))
        best = math.inf
        z = ORIGIN
        for j in idx[keep]:
            g = GroupElement(int(enum.a[j]), int(enum.b[j]),
                             int(enum.c[j]), int(enum.d[j]))
            best = min(best, distance(z, g.apply(z)))
        assert best == pytest.approx(math.acosh(3.0), abs=1e-12)

    def test_exceeds_r_max(self):
        p1 = qpoint(0.0, 1.0, q=5)
        p2 = qpoint(0.0, 9.0, q=5,
                    sheet=modq_context(5).elements[13])
        assert quotient_distance(p1, p2, 0.5) == math.inf

    def test_r_max_past_the_cap_names_the_bound(self):
        p = qpoint(0.0, 1.0, q=5)
        with pytest.raises(CapacityError, match="enumeration bound 31.000"):
            quotient_distance(p, p, 31.0)

    def test_below_direct_lift_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            z1 = PointH(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.5))
            z2 = PointH(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.5))
            d = quotient_distance(qpoint(z1.x, z1.y), qpoint(z2.x, z2.y), 8.0)
            assert d <= distance(z1, z2) + 1e-12

    def test_interior_close_pairs_match_lift_distance(self):
        # deep in the domain interior, nearby points see no shorter
        # conjugate: the quotient distance equals the lift distance
        rng = np.random.default_rng(41)
        for _ in range(20):
            z1 = PointH(rng.uniform(-0.2, 0.2), rng.uniform(1.3, 1.7))
            z2 = PointH(z1.x + rng.uniform(-0.05, 0.05),
                        z1.y + rng.uniform(-0.05, 0.05))
            d = quotient_distance(qpoint(z1.x, z1.y), qpoint(z2.x, z2.y), 6.0)
            assert d == pytest.approx(distance(z1, z2), abs=1e-12)

    def test_pseudometric_small_sample(self):
        rng = np.random.default_rng(12)
        pts = sample_points(3, 5.0, rng, 12)
        dmat = {}
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                dmat[i, j] = quotient_distance(a, b, 8.0)
        for i in range(12):
            for j in range(12):
                assert dmat[i, j] == pytest.approx(dmat[j, i], abs=1e-9)
                for k in range(12):
                    if all(math.isfinite(dmat[x]) for x in
                           ((i, k), (i, j), (j, k))):
                        assert dmat[i, k] <= dmat[i, j] + dmat[j, k] + 1e-9

    def test_deck_transformations_are_isometries(self):
        # left multiplication of both sheets by any cover-group element
        # leaves the relative coset, hence the distance, unchanged
        ctx = modq_context(3)
        rng = np.random.default_rng(9)
        p1, p2 = sample_points(3, 5.0, rng, 2)
        base = quotient_distance(p1, p2, 8.0)
        for h in (ctx.elements[3], ctx.elements[7], ctx.elements[10]):
            moved1 = QuotientPoint(p1.base, h.mul(p1.sheet))
            moved2 = QuotientPoint(p2.base, h.mul(p2.sheet))
            assert quotient_distance(moved1, moved2, 8.0) == base

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(31)
        x0 = qpoint(0.0, 1.0, q=5)
        (xs, ys, sheets), _ = sample_uniform_quotient(5, 10.0, rng, 40)
        batch = quotient_distances_from(x0, xs, ys, sheets, 8.0)
        ctx = modq_context(5)
        for j in range(0, 40, 7):
            p = QuotientPoint(PointH(xs[j], ys[j]),
                              ctx.elements[int(sheets[j])])
            assert batch[j] == pytest.approx(
                quotient_distance(x0, p, 8.0), abs=1e-10)


def reference_distance_pairs(q, xs1, ys1, sheets1, xs2, ys2, sheets2,
                             r_max, enum):
    """The per-sample loop the block kernel replaced: every member of the
    relative coset, one sample at a time, with Python coset arithmetic."""
    ctx = modq_context(q)
    labels = np.array([ctx.index[CosetModQ(q, *g).key()] for g in zip(
        enum.a.tolist(), enum.b.tolist(), enum.c.tolist(), enum.d.tolist())])
    out = np.full(len(xs1), math.inf)
    for j in range(len(xs1)):
        s1 = ctx.elements[sheets1[j]]
        target = CosetModQ(q, s1.d, -s1.b, -s1.c, s1.a).mul(
            ctx.elements[sheets2[j]])
        members = np.flatnonzero(labels == ctx.index[target.key()])
        if members.size == 0:
            continue
        a, b = enum.a[members], enum.b[members]
        c, d = enum.c[members], enum.d[members]
        x2, y2 = xs2[j], ys2[j]
        den2 = (c * x2 + d) ** 2 + (c * y2) ** 2
        wx = ((a * x2 + b) * (c * x2 + d) + a * c * y2 * y2) / den2
        wy = y2 / den2
        qarg = ((wx - xs1[j]) ** 2 + (wy - ys1[j]) ** 2) \
            / (2.0 * ys1[j] * wy)
        dmin = math.acosh(1.0 + float(np.min(qarg)))
        if dmin <= r_max:
            out[j] = dmin
    return out


class TestDistanceKernel:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_matches_per_sample_reference(self, q):
        n = 150
        rng = np.random.default_rng(100 + q)
        (x, y, s), _ = sample_uniform_quotient(q, 3.0, rng, 2 * n)
        enum = get_enumeration(7.5)
        a, b = slice(0, n), slice(n, 2 * n)
        args = (x[a], y[a], s[a], x[b], y[b], s[b])
        wide = reference_distance_pairs(q, *args, 5.0, enum)
        finite = np.sort(wide[np.isfinite(wide)])
        # r_max landing exactly on a distance, one ulp below it, and one
        # that leaves about half the pairs at inf
        r_edge = float(finite[len(finite) // 2])
        below = math.nextafter(r_edge, 0.0)
        refs = {}
        for r_max in (5.0, r_edge, below, 0.5):
            refs[r_max] = reference_distance_pairs(q, *args, r_max, enum)
            got = quotient_distance_pairs(q, *args, r_max, enum=enum)
            assert np.array_equal(got, refs[r_max])
        assert r_edge in refs[r_edge] and r_edge not in refs[below]
        assert np.isinf(refs[r_edge]).any()
        assert np.array_equal(quotient_distance_pairs(q, *args, r_edge),
                              refs[r_edge])
        ctx = modq_context(q)
        p0 = QuotientPoint(PointH(float(x[0]), float(y[0])),
                           ctx.elements[int(s[0])])
        from_ref = reference_distance_pairs(
            q, np.full(n, x[0]), np.full(n, y[0]), np.full(n, s[0]),
            x[b], y[b], s[b], 4.0, enum)
        assert np.array_equal(
            quotient_distances_from(p0, x[b], y[b], s[b], 4.0),
            from_ref)
        for j in range(0, n, 13):
            p = QuotientPoint(PointH(float(x[n + j]), float(y[n + j])),
                              ctx.elements[int(s[n + j])])
            d = quotient_distance(p0, p, 4.0)
            assert d == from_ref[j] or (math.isinf(d)
                                        and math.isinf(from_ref[j]))

    @pytest.mark.parametrize("q,r_max", [(2, 1.0), (5, 3.0)])
    def test_point_entries_equal_the_pairs_kernel(self, q, r_max):
        # quotient_distances_from and quotient_distance pass the point's
        # label to quotient_distance_pairs, so every bit agrees
        rng = np.random.default_rng(40 + q)
        (xs, ys, sheets), _ = sample_uniform_quotient(q, 10.0, rng, 60)
        ctx = modq_context(q)
        p0 = QuotientPoint(PointH(float(xs[0]), float(ys[0])),
                           ctx.elements[int(sheets[0])])
        assert p0.label == int(sheets[0])
        pairs = quotient_distance_pairs(q, np.full(60, xs[0]),
                                        np.full(60, ys[0]),
                                        np.full(60, sheets[0]), xs, ys,
                                        sheets, r_max)
        assert np.isfinite(pairs).any() and np.isinf(pairs).any()
        batch = quotient_distances_from(p0, xs, ys, sheets, r_max)
        assert batch.tobytes() == pairs.tobytes()
        for j in range(60):
            p = QuotientPoint(PointH(float(xs[j]), float(ys[j])),
                              ctx.elements[int(sheets[j])])
            assert np.float64(quotient_distance(p0, p, r_max)).tobytes() \
                == pairs[j].tobytes()

    def test_empty_input(self):
        p0 = qpoint(0.0, 1.0, q=5)
        empty = np.array([])
        got = quotient_distances_from(p0, empty, empty, empty, 8.0)
        assert got.shape == (0,) and got.dtype == np.float64
        got = quotient_distance_pairs(5, empty, empty, empty,
                                      empty, empty, empty, 8.0)
        assert got.shape == (0,) and got.dtype == np.float64


class TestInjectivityRadius:
    def test_q2_at_origin(self):
        radius = injectivity_radius(qpoint(0.0, 1.0, q=2))
        assert type(radius) is float
        assert radius == pytest.approx(0.5 * math.acosh(3.0), abs=1e-12)

    def test_q1_elliptic_point(self):
        # i is fixed by the inversion, which is excluded: the radius comes
        # from the shortest translation acosh(3/2)
        radius = injectivity_radius(qpoint(0.0, 1.0))
        assert radius == pytest.approx(0.5 * math.acosh(1.5), abs=1e-12)

    def test_cusp_shrinkage(self):
        # high points: radius ~ half the distance of the level-q horizontal
        # translation z -> z + q
        for q, y in ((3, 6.0), (5, 8.0)):
            radius = injectivity_radius(qpoint(0.0, y, q=q))
            expected = 0.5 * math.acosh(1.0 + q * q / (2.0 * y * y))
            assert radius == pytest.approx(expected, abs=1e-12)

    def test_generic_interior_point_positive(self):
        radius = injectivity_radius(qpoint(0.21, 1.4))
        assert radius > 0.0

    @pytest.mark.parametrize("q", [2, 5, 8, 13, 23, 101])
    def test_finite_at_every_level(self, q):
        # for q >= 2 no element of the level-q group has a smaller
        # Frobenius norm than T^q, which moves i by 2 asinh(q / 2)
        radius = injectivity_radius(qpoint(0.0, 1.0, q=q))
        assert radius == pytest.approx(math.asinh(q / 2.0), abs=1e-12)


class TestUniformSampling:
    def test_truncated_fraction_formula(self):
        assert truncated_domain_fraction(10.0) == pytest.approx(
            (1.0 / 10.0) / (math.pi / 3.0))

    def test_volume_and_radius(self):
        assert quotient_volume(5) == pytest.approx(60 * math.pi / 3)
        assert quotient_R(5) == pytest.approx(math.acosh(11.0), abs=1e-12)

    def test_base_domain_area_by_quadrature(self):
        # independent oracle for the classical pi/3: integrate 1/y^2 over
        # |x| <= 1/2, y >= sqrt(1 - x^2)
        from scipy.integrate import quad
        area, _ = quad(lambda x: 1.0 / math.sqrt(1.0 - x * x), -0.5, 0.5,
                       epsabs=1e-12)
        assert area == pytest.approx(math.pi / 3.0, abs=1e-10)
        assert quotient_volume(1) == pytest.approx(area, abs=1e-10)

    @pytest.mark.parametrize("cap", [math.inf, math.nan, 1.5])
    def test_cusp_cap_must_be_finite_and_at_least_2(self, cap):
        with pytest.raises(ConfigError, match="finite and >= 2"):
            sample_uniform_quotient(2, cap, np.random.default_rng(0), 10)

    def test_samples_in_domain(self):
        rng = np.random.default_rng(8)
        (x, y, sheets), frac = sample_uniform_quotient(3, 10.0, rng, 5000)
        assert frac == pytest.approx(0.3 / math.pi, abs=1e-12)
        assert np.all(np.abs(x) <= 0.5)
        assert np.all(x * x + y * y >= 1.0 - 1e-12)
        assert np.all(y <= 10.0)

    def test_sheet_marginal_chi_square(self):
        rng = np.random.default_rng(44)
        n = 100_000
        (_, _, sheets), _ = sample_uniform_quotient(3, 10.0, rng, n)
        counts = np.bincount(sheets, minlength=12)
        expected = n / 12.0
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < sstats.chi2.ppf(0.99, df=11)

    def test_base_marginal_chi_square(self):
        # mu-uniformity of the base point in (x, 1/y) cells
        rng = np.random.default_rng(45)
        n = 100_000
        (x, y, _), _ = sample_uniform_quotient(1, 10.0, rng, n)
        u = 1.0 / y
        # rectangle [−1/2,1/2] x [0.1, 0.9] strictly below the boundary arc
        inside = u <= 0.9
        cells_x = np.clip(((x[inside] + 0.5) * 4).astype(int), 0, 3)
        cells_u = np.clip(((u[inside] - 0.1) / 0.8 * 4).astype(int), 0, 3)
        counts = np.bincount(4 * cells_u + cells_x, minlength=16)
        expected = inside.sum() / 16.0
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < sstats.chi2.ppf(0.99, df=15)


class TestRandomCover:
    def test_transitive_fraction_n3_exhaustive(self):
        perms = list(itertools.permutations(range(3)))
        count = sum(
            RandomCover(3, np.array(sa), np.array(sb)).is_transitive()
            for sa in perms for sb in perms)
        assert count == 26  # out of (3!)^2 = 36 pairs

    @pytest.mark.parametrize("n", [6, 100_000])
    def test_hand_built_covers(self, n):
        # sigma_A cycles each half of the sheets, so with sigma_B fixing
        # every sheet the cover splits in two; swapping the halves joins it
        half = np.arange(n // 2)
        cycles = np.concatenate([np.roll(half, 1), n // 2 + np.roll(half, 1)])
        assert not RandomCover(n, cycles, np.arange(n)).is_transitive()
        assert RandomCover(n, cycles, np.roll(np.arange(n), n // 2)
                           ).is_transitive()
