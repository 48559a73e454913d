"""Derivation operators, closure routes, implications, distinguishing sets."""

from __future__ import annotations

import random

import pytest

from ufgkit.errors import (
    EmptyFamily,
    FamilyTooSmall,
    InconsistentAttributes,
    IndexOutOfRange,
    MemberNotInFamily,
    MixedGroundSets,
    ObjectNotInContext,
    ReflexivePairRejected,
)
from ufgkit.orders import (
    GroundSet,
    empty_poset,
    enumerate_all_posets,
    make_poset,
)
from ufgkit.context import (
    Attribute,
    LEQ,
    NLEQ,
    all_attributes,
    distinguishing,
    gamma_interval,
    partition_distinguishing,
)
from ufgkit.oracles import (
    gamma_explicit,
    implication_valid,
    incidence,
    intersect_family,
    phi,
    psi,
    union_family,
)


# --- incidence -----------------------------------------------------------------


def test_incidence_on_counterexample(corr):
    ground, p1, p2, _, _ = corr
    a, b = ground.index("a"), ground.index("b")
    assert incidence(p1, Attribute(LEQ, a, b))
    assert not incidence(p2, Attribute(LEQ, a, b))
    assert incidence(p2, Attribute(NLEQ, a, b))


def test_incidence_complementarity(pool3):
    g = pool3[0].ground
    for p in pool3:
        for k in range(g.pair_count):
            i, j = g.pair_at(k)
            assert incidence(p, Attribute(LEQ, i, j)) != incidence(
                p, Attribute(NLEQ, i, j)
            )


def test_incidence_range_check(corr):
    _, p1, _, _, _ = corr
    with pytest.raises(IndexOutOfRange):
        incidence(p1, Attribute(LEQ, 0, 99))


def test_attribute_count(g3):
    assert len(all_attributes(g3)) == 2 * 3 * 2


def test_attribute_rejects_bad_kinds_and_pairs():
    with pytest.raises(ValueError):
        Attribute("x", 0, 1)
    with pytest.raises(ReflexivePairRejected):
        Attribute(LEQ, 1, 1)
    with pytest.raises(IndexOutOfRange):
        Attribute(LEQ, -1, 0)


# --- derivations ----------------------------------------------------------------


def test_psi_singleton_row(corr):
    ground, p1, _, _, _ = corr
    row = psi([p1], ground)
    assert len(row) == ground.pair_count  # one attribute per ordered pair
    assert all(incidence(p1, m) for m in row)


def test_psi_counterexample_pair(corr):
    ground, _, p2, p3, _ = corr
    shared = psi([p2, p3], ground)
    texts = {m.text(ground) for m in shared}
    assert "nleq(a,b)" in texts
    assert "nleq(a1,c1)" in texts
    assert not any(m.kind == LEQ for m in shared)


def test_psi_empty_set_gives_all_attributes(g3):
    assert psi([], g3) == frozenset(all_attributes(g3))


def test_psi_rejects_foreign_objects(g2, g3):
    with pytest.raises(ObjectNotInContext):
        psi([empty_poset(g3)], g2)


def test_phi_empty_attribute_set(g2):
    assert set(phi([], g2).materialize()) == set(enumerate_all_posets(g2))


def test_phi_of_full_row_is_the_object(corr):
    ground, p1, _, _, _ = corr
    extent = phi(psi([p1], ground), ground).materialize()
    assert extent == (p1,)


def test_phi_mixed_constraints_on_counterexample(corr):
    ground, _, p2, p3, q = corr
    a1, b1, c1 = (ground.index(l) for l in ("a1", "b1", "c1"))
    ext = phi([Attribute(LEQ, a1, b1), Attribute(NLEQ, b1, c1)], ground)
    assert ext.contains(p2)
    assert not ext.contains(p3)
    assert not ext.contains(q)


def test_phi_inconsistency_is_lazy(g2):
    ext = phi([Attribute(LEQ, 0, 1), Attribute(NLEQ, 0, 1)], g2)
    assert not ext.contains(empty_poset(g2))  # predicate still answers
    with pytest.raises(InconsistentAttributes):
        ext.materialize()


def test_phi_unsatisfiable_but_consistent_gives_empty_extent(g3):
    # required pairs close into a cycle: no order qualifies, nothing raises
    ext = phi([Attribute(LEQ, 0, 1), Attribute(LEQ, 1, 0)], g3)
    assert ext.materialize() == ()


def test_galois_property_sampled(pool3):
    g = pool3[0].ground
    attrs = all_attributes(g)
    rng = random.Random(13)
    for _ in range(60):
        A = rng.sample(pool3, rng.randint(0, 3))
        B = rng.sample(attrs, rng.randint(0, 4))
        ext = phi(B, g)
        lhs = all(ext.contains(p) for p in A)
        rhs = set(B) <= psi(A, g)
        assert lhs == rhs


# --- the closure operator --------------------------------------------------------


def test_gamma_singleton(corr):
    _, p1, _, _, _ = corr
    iv = gamma_interval([p1])
    assert iv.lower == p1 and iv.upper.bits == p1.bits


def test_gamma_counterexample_bounds(corr):
    ground, p1, p2, p3, q = corr
    iv = gamma_interval([p1, p2, p3])
    assert iv.lower.bits == 0
    assert len(iv.upper) == 4
    small = gamma_interval([p1, p2])
    assert not small.upper.has_pair(ground.index("b1"), ground.index("c1"))
    assert not small.contains(q)


def test_gamma_interval_makes_no_canonical_family(corr, monkeypatch):
    import ufgkit.context

    _, p1, p2, p3, _ = corr
    calls = []
    original = ufgkit.context.canonical_family

    def counting(S):
        calls.append(1)
        return original(S)

    monkeypatch.setattr(ufgkit.context, "canonical_family", counting)
    iv = gamma_interval([p3, p1, p2, p1])
    assert calls == []
    assert iv.lower == intersect_family([p1, p2, p3])
    assert iv.upper == union_family([p1, p2, p3])


def test_gamma_explicit_matches_interval_on_samples(pool3):
    rng = random.Random(3)
    for _ in range(50):
        S = rng.sample(pool3, rng.randint(1, 3))
        assert gamma_explicit(S) == frozenset(gamma_interval(S).posets())


def test_gamma_explicit_counterexample(corr):
    ground, p1, p2, p3, q = corr
    closure = gamma_explicit([p1, p2, p3])
    assert {p1, p2, p3, q} <= closure


def test_gamma_explicit_is_uncapped_like_the_interval_walk():
    # a 7-item ground is beyond the default cap on enumerating every order
    g = GroundSet.numbered(7)
    S = [make_poset(g, [(f"x{i}", f"x{i + 1}")]) for i in (1, 3, 5)]
    closure = gamma_explicit(S)
    assert closure == set(gamma_interval(S).posets())
    assert len(closure) == 8


def test_gamma_rejects_empty_family():
    with pytest.raises(EmptyFamily):
        gamma_interval([])
    with pytest.raises(EmptyFamily):
        gamma_explicit([])


def test_gamma_rejects_mixed_ground_sets(g2, g3):
    with pytest.raises(MixedGroundSets):
        gamma_interval([empty_poset(g2), empty_poset(g3)])
    with pytest.raises(ObjectNotInContext):  # the context is the first member's
        gamma_explicit([empty_poset(g2), empty_poset(g3)])


def test_closure_axioms_sampled(pool3):
    rng = random.Random(11)
    for _ in range(40):
        S = rng.sample(pool3, rng.randint(1, 3))
        closure = set(gamma_interval(S).posets())
        assert set(S) <= closure  # extensive
        assert set(gamma_interval(tuple(closure)).posets()) == closure  # idempotent
        T = S + rng.sample(pool3, 1)
        assert closure <= set(gamma_interval(T).posets())  # isotone


# --- implications -----------------------------------------------------------------


def test_implication_counterexample(corr):
    _, p1, p2, p3, q = corr
    assert implication_valid([p1, p2, p3], [q])
    assert not implication_valid([p1, p2], [q])


def test_implication_reflexive_and_empty(corr):
    _, p1, p2, _, _ = corr
    assert implication_valid([p1, p2], [p1, p2])
    assert implication_valid([p1], [])
    with pytest.raises(EmptyFamily):
        implication_valid([], [p1])


def test_implication_matches_membership_reading(pool3):
    # the bound form agrees with "conclusion inside the closure of the premise"
    rng = random.Random(17)
    for _ in range(60):
        Y = rng.sample(pool3, rng.randint(1, 3))
        Z = rng.sample(pool3, rng.randint(1, 3))
        got = implication_valid(Y, Z)
        closure = gamma_explicit(Y)
        assert got == (gamma_explicit(Z) <= closure)
        assert got == all(z in closure for z in Z)


# --- distinguishing attributes ------------------------------------------------------


def test_distinguishing_counterexample_sets(corr):
    ground, p1, p2, p3, q = corr
    fam = (p1, p2, p3)
    expect = {
        p1: {"nleq(a,b)", "nleq(a1,c1)"},
        p2: {"nleq(a1,b1)"},
        p3: {"nleq(b1,c1)"},
    }
    for member, texts in expect.items():
        d = distinguishing(member, fam, q)
        assert {m.text(ground) for m in d.attributes} == texts
        assert d.restriction == q


def test_restricted_sets_shrink(corr, pool3):
    _, p1, p2, p3, q = corr
    for member in (p1, p2, p3):
        unrestricted = distinguishing(member, (p1, p2, p3)).attributes
        restricted = distinguishing(member, (p1, p2, p3), q).attributes
        assert restricted <= unrestricted
    rng = random.Random(23)
    for _ in range(40):
        fam = rng.sample(pool3, rng.randint(2, 4))
        x = rng.choice(fam)
        q3 = rng.choice(pool3)
        assert (
            distinguishing(x, fam, q3).attributes
            <= distinguishing(x, fam).attributes
        )


def test_distinguishing_preconditions(corr, g2):
    ground, p1, p2, _, q = corr
    with pytest.raises(FamilyTooSmall):
        distinguishing(p1, [p1])
    with pytest.raises(FamilyTooSmall):
        partition_distinguishing([p1], None)
    with pytest.raises(MemberNotInFamily):
        distinguishing(q, [p1, p2])
    with pytest.raises(MixedGroundSets):  # a restriction order on another ground
        partition_distinguishing([p1, p2], empty_poset(g2))


def test_partition_counterexample(corr):
    ground, p1, p2, p3, q = corr
    d_leq, d_nleq = partition_distinguishing((p1, p2, p3), q)
    assert d_leq == frozenset()
    assert {m.text(ground) for m in d_nleq} == {
        "nleq(a,b)",
        "nleq(a1,b1)",
        "nleq(a1,c1)",
        "nleq(b1,c1)",
    }


def test_partition_two_item_family():
    # chain and antichain on two items: the restricted partition under the
    # antichain keeps only the chain's pair as a shared-but-missing statement;
    # without a restriction the chain's own pair shows up on the nleq side.
    g = GroundSet(["a", "b"])
    chain = make_poset(g, [("a", "b")])
    antichain = empty_poset(g)
    d_leq, d_nleq = partition_distinguishing((chain, antichain), antichain)
    assert {m.text(g) for m in d_leq} == {"leq(a,b)"}
    assert d_nleq == frozenset()
    u_leq, u_nleq = partition_distinguishing((chain, antichain), None)
    assert {m.text(g) for m in u_nleq} == {"nleq(a,b)"}
    assert {m.text(g) for m in u_leq} == {"leq(a,b)"}


def test_partition_kinds_disjoint(pool3):
    rng = random.Random(29)
    for _ in range(30):
        fam = rng.sample(pool3, rng.randint(2, 4))
        q = rng.choice(pool3)
        d_leq, d_nleq = partition_distinguishing(fam, q)
        assert not {m for m in d_leq} & {m for m in d_nleq}
        assert all(m.kind == LEQ for m in d_leq)
        assert all(m.kind == NLEQ for m in d_nleq)
