from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from tcores import weights
from tcores.coding import class_sorted_coding, core_coding, enumerate_codings
from tcores.partitions import Partition, enumerate_t_cores
from tcores.weights import (
    DivisionByZeroWeightError,
    WeightLedger,
    ZeroArgumentError,
    coding_difference_ledger,
    content_ledger,
    evaluate,
    hook_shift_ledger,
    parity_coding_ledger,
    parity_normalize,
)
from tcores.coding import content_coding
from tcores.qseries import TruncatedSeries
from tcores.rings import RationalField


def test_ledger_basics():
    one = WeightLedger.one()
    assert one.is_one()
    L = WeightLedger({1: 2, 3: -1})
    assert (L * one) == L
    assert (L / L).is_one()
    assert (L ** 2) == WeightLedger({1: 4, 3: -2})
    assert str(WeightLedger({-1: 1, 3: 1, 1: -2})) == "+ (-1,1) (1,-2) (3,1)"
    assert str(WeightLedger({2: 1}, sign=-1)) == "- (2,1)"
    assert WeightLedger({1: 1}).negate_arguments() == WeightLedger({-1: 1})


def test_hook_shift_ledger_examples():
    assert hook_shift_ledger(Partition(()), 4).is_one()
    assert hook_shift_ledger(Partition((1,)), 2) == WeightLedger({-1: 1, 3: 1, 1: -2})
    L = hook_shift_ledger(Partition((6, 3, 3, 2)), 5)
    assert L.total_degree() == 0


def test_coding_ledger_base_is_one():
    for t in range(1, 8):
        c = core_coding(Partition(()), t)
        beta = Partition(()).small_hook_counts(t)
        assert coding_difference_ledger(c, beta, t).is_one()


def test_coding_ledger_hand_check_single_cell():
    lam = Partition((1,))
    c = core_coding(lam, 2)
    led = coding_difference_ledger(c, lam.small_hook_counts(2), 2)
    assert led == hook_shift_ledger(lam, 2)
    assert led == WeightLedger({-1: 1, 1: -2, 3: 1})


def test_ledger_identity_sweep():
    for t in range(1, 8):
        for lam in enumerate_t_cores(t, 12):
            lhs = hook_shift_ledger(lam, t)
            c = core_coding(lam, t)
            rhs = coding_difference_ledger(c, lam.small_hook_counts(t), t)
            assert lhs == rhs, (t, lam)


def test_parity_coding_ledger_sweep():
    for t in range(1, 8):
        for lam in enumerate_t_cores(t, 12):
            c = core_coding(lam, t)
            main = coding_difference_ledger(c, lam.small_hook_counts(t), t)
            for parity in ("odd", "even"):
                assert parity_normalize(main, parity) == parity_coding_ledger(
                    c, t, parity
                ), (t, lam, parity)


def test_parity_sign_table():
    # the sign is -1 exactly for t = 3 mod 4 with an odd weight; absorbed
    # into the normalized ledger, so cross-check via a case where it bites
    lam = Partition((1,))
    c = core_coding(lam, 3)
    odd = parity_coding_ledger(c, 3, "odd")
    main = parity_normalize(coding_difference_ledger(c, lam.small_hook_counts(3), 3), "odd")
    assert odd == main
    assert odd.sign == -1  # lhs has tau(-2) once: one flip


def test_content_ledger():
    assert content_ledger(Partition(()), Partition(()), 3).is_one()
    lam = Partition((1,))
    mu = content_coding(lam, 2)
    assert content_ledger(lam, mu, 2) == hook_shift_ledger(lam, 2)
    lam = Partition((8, 4, 3, 2, 2, 1))
    mu = content_coding(lam, 5)
    assert content_ledger(lam, mu, 5) == hook_shift_ledger(lam, 5)


def test_content_ledger_sweep():
    for t in range(1, 7):
        for lam in enumerate_t_cores(t, 12):
            mu = content_coding(lam, t)
            assert content_ledger(lam, mu, t) == hook_shift_ledger(lam, t), (t, lam)


def test_parity_normalize():
    L = WeightLedger({-1: 1, 3: 1, 1: -2})
    odd = parity_normalize(L, "odd")
    assert odd == WeightLedger({1: -1, 3: 1}, sign=-1)
    even = parity_normalize(L, "even")
    assert even == WeightLedger({1: -1, 3: 1}, sign=1)
    positive = WeightLedger({2: 3, 5: -1})
    assert parity_normalize(positive, "odd") == positive
    assert parity_normalize(parity_normalize(L, "odd"), "odd") == odd
    with pytest.raises(ZeroArgumentError):
        parity_normalize(WeightLedger({0: 1}), "odd")
    assert parity_normalize(WeightLedger({0: 2}), "even") == WeightLedger({0: 2})


def test_evaluate_identity_weight():
    assert evaluate(WeightLedger.one(), Fraction) == 1
    lam = Partition((6, 3, 3, 2))
    L = hook_shift_ledger(lam, 2)
    direct = Fraction(1)
    for hk in lam.hooks():
        direct *= Fraction((hk - 2) * (hk + 2), hk * hk)
    assert evaluate(L, Fraction) == direct


def test_evaluate_division_by_zero():
    with pytest.raises(DivisionByZeroWeightError):
        evaluate(WeightLedger({0: -1}), Fraction)
    # zero with a positive exponent is fine: the product is zero
    assert evaluate(WeightLedger({0: 1, 2: 3}), Fraction) == 0


def test_evaluate_homomorphism():
    L1 = WeightLedger({1: 2, 4: -1})
    L2 = WeightLedger({2: 1, 4: 2}, sign=-1)
    tau = lambda k: Fraction(k * k)
    assert evaluate(L1 * L2, tau) == evaluate(L1, tau) * evaluate(L2, tau)


def test_shifted_square_weight_z_coefficient():
    # with tau(k) = 1 + z k^2, the first-order z coefficient of both sides
    # agreeing forces the size formula
    lam = Partition((8, 4, 3, 2, 2, 1))
    t = 5
    c = core_coding(lam, t)

    def tau(k):
        """1 + z k^2 as a series in z, truncated after z^1."""
        return TruncatedSeries(RationalField(), [Fraction(1), Fraction(k * k)], var="z")

    lhs = evaluate(hook_shift_ledger(lam, t), tau)
    rhs = evaluate(coding_difference_ledger(c, lam.small_hook_counts(t), t), tau)
    assert lhs.coeffs == rhs.coeffs
    # the identity-weight special case of the same ledger pair
    assert evaluate(hook_shift_ledger(lam, t), Fraction) == evaluate(
        coding_difference_ledger(c, lam.small_hook_counts(t), t), Fraction
    )


def test_size_reconstruction_from_z_coefficient():
    # sum over hooks of (h-t)^2 + (h+t)^2 - 2h^2 equals 2 t^2 |lambda|
    for t in (3, 5):
        for lam in enumerate_t_cores(t, 10):
            total = sum((h - t) ** 2 + (h + t) ** 2 - 2 * h * h for h in lam.hooks())
            assert total == 2 * t * t * lam.size


# ---------------------------------------------------------------------------
# the ledger kernel: each builder adds its exponents straight into one dict
# and wraps it with the trusted constructor; the oracle is the documented
# factor list accumulated through the public, validating constructor

# fixed examples and no shrinking, so the negative control below fails
# the same way on every run and quickly; a failing example is at most a
# dozen factors, readable unshrunk
KERNEL = settings(
    derandomize=True, database=None, report_multiple_bugs=False,
    phases=(Phase.explicit, Phase.generate),
)
CODINGS = [c for t in range(1, 9) for c in enumerate_codings(t, 12)]
factor_lists = st.lists(st.tuples(st.integers(-9, 9), st.integers(-3, 3)), max_size=12)
partitions = st.lists(st.integers(1, 6), max_size=6).map(
    lambda ps: Partition(sorted(ps, reverse=True))
)


def public(factors, sign=1):
    """The ledger of (argument, exponent) pairs, by the public constructor."""
    exps = {}
    for k, e in factors:
        exps[k] = exps.get(k, 0) + e
    return WeightLedger(exps, sign)


def normalized(factors, sign, parity):
    """The factors with every argument made positive by tau(-k) = +-tau(k),
    and the sign that leaves."""
    for k, e in factors:
        if k < 0 and parity == "odd" and e % 2:
            sign = -sign
    return [(abs(k), e) for k, e in factors], sign


def differences(tw):
    return [((a - b) // 2, 1) for i, a in enumerate(tw) for b in tw[i + 1:]]


@KERNEL
@given(st.data())
def test_builders_are_the_public_constructor(data):
    lam, mu = data.draw(partitions), data.draw(partitions)
    t = data.draw(st.integers(1, 8))
    hooks = lam.hooks()
    assert hook_shift_ledger(lam, t) == public(
        [f for h in hooks for f in ((h - t, 1), (h + t, 1), (h, -2))]
    )
    beta = lam.small_hook_counts(t)
    assert content_ledger(lam, mu, t) == public(
        [f for i in range(1, t) for f in ((-i, beta[i - 1]), (i, -beta[i - 1]))]
        + [f for h, c in zip(mu.hooks(), mu.contents()) for f in ((t + c, 1), (h, -1))]
    )
    coding = data.draw(st.sampled_from(CODINGS))
    ct = coding.t
    b = data.draw(st.lists(st.integers(0, 4), min_size=ct - 1, max_size=ct - 1))
    assert coding_difference_ledger(coding, b) == public(
        [f for i in range(1, ct) for f in ((-i, b[i - 1]), (i, -(b[i - 1] + ct - i)))]
        + differences(coding.twice)
    )
    factors = [(k, k - ct) for k in range(1, ct)] + differences(class_sorted_coding(coding))
    for parity in ("odd", "even"):
        sign = -1 if ct % 4 == 3 and parity == "odd" else 1
        assert parity_coding_ledger(coding, parity=parity) == public(
            *normalized(factors, sign, parity)
        )


@KERNEL
@given(factor_lists, factor_lists, st.sampled_from((1, -1)), st.integers(-3, 3))
def test_ledger_operations_are_the_public_constructor(fa, fb, sign, n):
    a, b = public(fa, sign), public(fb)
    assert a * b == public(fa + fb, sign)
    assert a / b == public(fa + [(k, -e) for k, e in fb], sign)
    assert a ** n == public([(k, e * n) for k, e in fa], sign if n % 2 else 1)
    assert a.negate_arguments() == public([(-k, e) for k, e in fa], sign)
    for parity in ("odd", "even"):
        if parity == "odd" and 0 in a.exps:
            with pytest.raises(ZeroArgumentError):
                parity_normalize(a, parity)
        else:
            assert parity_normalize(a, parity) == public(*normalized(fa, sign, parity))


@KERNEL
@given(factor_lists, st.sampled_from((1, -1)))
def test_cancelling_factors_are_one(factors, sign):
    one = WeightLedger.one()
    assert public(factors + [(k, -e) for k, e in reversed(factors)]) == one
    a = public(factors, sign)
    for got in (a / a, a * a ** -1, a ** 0, parity_normalize(a / a, "odd")):
        assert got == one and got.is_one()


def test_a_trusted_constructor_keeping_zeros_fails(monkeypatch):
    def keeps_zeros(exps, sign=1):
        led = object.__new__(WeightLedger)
        led.exps, led.sign = dict(exps), sign
        return led

    monkeypatch.setattr(weights, "_trusted", keeps_zeros)
    # a kept tau(0)^0 also makes the odd normalization of a / a raise
    for test in (
        test_builders_are_the_public_constructor,
        test_ledger_operations_are_the_public_constructor,
        test_cancelling_factors_are_one,
    ):
        with pytest.raises((AssertionError, ZeroArgumentError)):
            test()
