import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from caforge import GroupKind, Parameters, develop, first_stage_n
from caforge.groups import OrbitTable, field_for, orbit_table, prime_power


# 32, 81 and 128 have no fixed modulus: field_for searches for one.
PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 81, 128]


class TestPrimePower:
    @pytest.mark.parametrize("v,expected", [
        (2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (8, (2, 3)), (9, (3, 2)),
        (27, (3, 3)), (25, (5, 2)), (49, (7, 2)), (121, (11, 2)),
    ])
    def test_recognized(self, v, expected):
        assert prime_power(v) == expected

    @pytest.mark.parametrize("v", [1, 6, 10, 12, 15, 100])
    def test_rejected(self, v):
        assert prime_power(v) is None


class TestFiniteField:
    @pytest.mark.parametrize("v", PRIME_POWERS)
    def test_field_axioms(self, v):
        add, mul = field_for(v)
        # commutativity and identities
        assert np.array_equal(add, add.T)
        assert np.array_equal(mul, mul.T)
        assert np.array_equal(add[0], np.arange(v))
        assert np.array_equal(mul[1], np.arange(v))
        assert not mul[0].any()
        # each row of the addition table is a permutation, ditto for
        # multiplication by a nonzero element
        for a in range(v):
            assert sorted(add[a]) == list(range(v))
        for a in range(1, v):
            assert sorted(mul[a]) == list(range(v))

    @pytest.mark.parametrize("v", [4, 8, 9, 27])
    def test_associativity_and_distributivity(self, v):
        add, mul = field_for(v)
        for a, b, c in itertools.product(range(v), repeat=3):
            assert mul[mul[a, b], c] == mul[a, mul[b, c]]
            assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]

    def test_prime_field_is_modular_arithmetic(self):
        add, mul = field_for(7)
        for a, b in itertools.product(range(7), repeat=2):
            assert add[a, b] == (a + b) % 7
            assert mul[a, b] == (a * b) % 7

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            field_for(6)


def orbit_index(group, symbols, v) -> int:
    """The orbit of a symbol tuple in its orbit table, -1 when short."""
    table = orbit_table(len(symbols), v, group)
    return int(table.orbit_of[int(np.dot(symbols, table.radix))])


class TestCanonicalize:
    """A tuple's orbit index is invariant under the group, and the orbit's
    representative is in canonical form."""

    @given(st.integers(2, 5), st.lists(st.integers(0, 10), min_size=2, max_size=5))
    def test_cyclic_invariant_under_shift(self, v, raw):
        symbols = tuple(s % v for s in raw)
        orbit = orbit_index(GroupKind.CYCLIC, symbols, v)
        assert orbit >= 0
        assert orbit_table(len(symbols), v, GroupKind.CYCLIC).rep_symbols(orbit)[0] == 0
        for b in range(v):
            shifted = tuple((s + b) % v for s in symbols)
            assert orbit_index(GroupKind.CYCLIC, shifted, v) == orbit

    @pytest.mark.parametrize("v", [2, 3, 4, 5, 8, 9])
    def test_frobenius_invariant_under_affine(self, v):
        add, mul = field_for(v)
        table = orbit_table(4, v, GroupKind.FROBENIUS)
        rng = np.random.default_rng(7)
        for _ in range(40):
            symbols = rng.integers(0, v, size=4)
            orbit = orbit_index(GroupKind.FROBENIUS, symbols, v)
            assert (orbit < 0) == (len(set(symbols.tolist())) == 1)
            if orbit >= 0:
                base = table.rep_symbols(orbit)
                assert base[0] == 0
                j = next(i for i, s in enumerate(base) if s != 0)
                assert base[j] == 1
            for a in range(1, v):
                for b in range(v):
                    image = add[mul[a, symbols], b]
                    assert orbit_index(GroupKind.FROBENIUS, image, v) == orbit

    def test_trivial_is_identity(self):
        table = orbit_table(3, 3, GroupKind.TRIVIAL)
        assert table.rep_symbols(orbit_index(GroupKind.TRIVIAL, (2, 0, 1), 3)) == (2, 0, 1)


class TestOrbitCount:
    @pytest.mark.parametrize("group,t,v", [
        (GroupKind.TRIVIAL, 2, 3), (GroupKind.TRIVIAL, 3, 2),
        (GroupKind.CYCLIC, 2, 4), (GroupKind.CYCLIC, 3, 3),
        (GroupKind.FROBENIUS, 2, 3), (GroupKind.FROBENIUS, 3, 4),
        (GroupKind.FROBENIUS, 4, 3), (GroupKind.FROBENIUS, 3, 5),
    ])
    def test_matches_enumeration(self, group, t, v):
        # all short tuples form one orbit, marked -1
        canon = set()
        shorts = set()
        for tup in itertools.product(range(v), repeat=t):
            orbit = orbit_index(group, tup, v)
            (shorts if orbit < 0 else canon).add(orbit)
        _, full, constant_rows = group.shape(t, v)
        assert full == len(canon)
        assert bool(constant_rows) == bool(shorts)

    def test_reference_scale(self):
        # With the Frobenius action at t=6, v=3 each column set carries
        # (3^5 - 1) / 2 = 121 full orbits; first_stage_n needs no rows once
        # the target reaches all C(56, 6) * 121 of them.
        p = Parameters(6, 56, 3)
        eta = 32468436
        assert GroupKind.FROBENIUS.shape(p.t, p.v)[1] == 121
        with pytest.warns(UserWarning, match="no rows needed"):
            assert first_stage_n(p, GroupKind.FROBENIUS, eta * 121) == 0
        assert first_stage_n(p, GroupKind.FROBENIUS, eta * 121 - 1) > 0

    def test_frobenius_needs_prime_power(self):
        with pytest.raises(ValueError):
            first_stage_n(Parameters(2, 4, 6), GroupKind.FROBENIUS, 1.0)
        with pytest.raises(ValueError, match="prime-power v, got 6"):
            GroupKind.FROBENIUS.shape(2, 6)


class TestGroupShape:
    @pytest.mark.parametrize("group,t,v", [
        (GroupKind.TRIVIAL, 2, 3), (GroupKind.TRIVIAL, 3, 6),
        (GroupKind.CYCLIC, 2, 4), (GroupKind.CYCLIC, 3, 6),
        (GroupKind.FROBENIUS, 2, 3), (GroupKind.FROBENIUS, 3, 4),
        (GroupKind.FROBENIUS, 4, 3), (GroupKind.FROBENIUS, 2, 8),
    ])
    def test_matches_orbit_table(self, group, t, v):
        # full orbits of |G| tuples each, plus the constant tuples that the
        # constant rows cover, partition all v^t tuples
        order, full, constant_rows = group.shape(t, v)
        tbl = OrbitTable(t, v, group)
        assert tbl.n_orbits == full
        assert all(len(m) == order for m in tbl.members)
        assert np.count_nonzero(tbl.orbit_of < 0) == constant_rows
        assert order * full + constant_rows == v**t


class TestDevelop:
    def test_trivial_copies(self, rng):
        a = rng.integers(0, 3, size=(4, 5))
        out = develop(a, GroupKind.TRIVIAL, 3)
        assert np.array_equal(out, a)
        assert out is not a

    def test_cyclic_block_structure(self, rng):
        a = rng.integers(0, 4, size=(3, 6))
        out = develop(a, GroupKind.CYCLIC, 4)
        assert out.shape == (12, 6)
        for b in range(4):
            assert np.array_equal(out[3 * b: 3 * (b + 1)], (a + b) % 4)

    @pytest.mark.parametrize("v", [3, 4, 5])
    def test_frobenius_row_count_and_orbits(self, rng, v):
        a = rng.integers(0, v, size=(2, 5))
        out = develop(a, GroupKind.FROBENIUS, v)
        assert out.shape == (2 * v * (v - 1) + v, 5)
        # last v rows are the constants
        for s in range(v):
            assert np.array_equal(out[-v + s], np.full(5, s))
        # block (a-1)*v + b holds the image of the rows under x -> a*x + b
        add, mul = field_for(v)
        for aa in range(1, v):
            for bb in range(v):
                block = (aa - 1) * v + bb
                assert np.array_equal(out[2 * block: 2 * block + 2], add[mul[aa, a], bb])

    def test_cyclic_coverage_lifts(self, rng):
        # If the base array covers one representative of each cyclic orbit,
        # the developed array covers everything.
        from caforge import verify_covering_array
        p = Parameters(2, 3, 3)
        base = np.array([
            [0, 0, 0], [0, 1, 2], [0, 2, 1],
        ])
        out = develop(base, GroupKind.CYCLIC, 3)
        assert verify_covering_array(out, p)


class TestOrbitTableReference:
    """Orbits built by applying each group element, written out here, to
    every tuple; the orbit table must list exactly these orbits."""

    @pytest.mark.parametrize("group", list(GroupKind), ids=lambda g: g.value)
    @pytest.mark.parametrize("v", [2, 3, 4, 5, 8, 9])
    def test_matches_group_action(self, group, v):
        t = 3
        add, mul = field_for(v)
        elements = {
            GroupKind.TRIVIAL: [lambda x: x],
            GroupKind.CYCLIC: [lambda x, b=b: (x + b) % v for b in range(v)],
            GroupKind.FROBENIUS: [lambda x, a=a, b=b: add[mul[a, x], b]
                                  for a in range(1, v) for b in range(v)],
        }[group]
        radix = v ** np.arange(t - 1, -1, -1)
        tuples = np.array(list(itertools.product(range(v), repeat=t)))
        orbits = {tuple(sorted({int(g(x) @ radix) for g in elements})) for x in tuples}
        # short orbits: exactly the constant tuples, under Frobenius only
        constant = np.flatnonzero((tuples == tuples[:, :1]).all(axis=1))
        short = set(constant.tolist()) if group is GroupKind.FROBENIUS else set()
        full = sorted(o for o in orbits if not short & set(o))
        orbit_of = np.full(v**t, -1)
        for i, o in enumerate(full):
            orbit_of[list(o)] = i

        tbl = OrbitTable(t, v, group)
        assert tbl.n_orbits == len(full)
        assert tbl.rep_rank.tolist() == [o[0] for o in full]
        assert [m.tolist() for m in tbl.members] == [list(o) for o in full]
        assert tbl.orbit_of.tolist() == orbit_of.tolist()
        assert set(np.flatnonzero(tbl.orbit_of < 0).tolist()) == short


class TestOrbitTable:
    def test_trivial_identity(self):
        tbl = OrbitTable(2, 3, GroupKind.TRIVIAL)
        assert tbl.n_orbits == 9
        assert np.array_equal(tbl.orbit_of, np.arange(9))
        assert tbl.unrank(5) == (1, 2)

    @pytest.mark.parametrize("group,t,v", [
        (GroupKind.CYCLIC, 3, 3), (GroupKind.CYCLIC, 2, 5),
        (GroupKind.FROBENIUS, 3, 3), (GroupKind.FROBENIUS, 2, 4),
        (GroupKind.FROBENIUS, 4, 3),
    ])
    def test_partition(self, group, t, v):
        tbl = OrbitTable(t, v, group)
        assert tbl.n_orbits == group.shape(t, v)[1]
        # members partition the ranks not marked short
        seen = np.concatenate(tbl.members) if tbl.members else np.array([])
        assert len(seen) == len(set(seen.tolist()))
        assert len(seen) + np.count_nonzero(tbl.orbit_of < 0) == v**t
        # orbit sizes: v for cyclic, v(v-1) for frobenius full orbits
        size = v if group is GroupKind.CYCLIC else v * (v - 1)
        assert all(len(m) == size for m in tbl.members)

    def test_rep_is_member_and_canonical(self):
        tbl = OrbitTable(3, 4, GroupKind.FROBENIUS)
        for o in range(tbl.n_orbits):
            rep = tbl.rep_symbols(o)
            assert orbit_index(GroupKind.FROBENIUS, rep, 4) == o
            assert int(tbl.rep_rank[o]) == min(tbl.members[o].tolist())

    def test_unrank_roundtrip(self):
        tbl = OrbitTable(3, 5, GroupKind.TRIVIAL)
        for rank in range(125):
            tup = tbl.unrank(rank)
            assert int(np.dot(tup, tbl.radix)) == rank
