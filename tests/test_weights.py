from fractions import Fraction

import pytest

from tcores.coding import core_coding
from tcores.partitions import Partition, enumerate_t_cores
from tcores.weights import (
    DivisionByZeroWeightError,
    WeightLedger,
    ZeroArgumentError,
    coding_difference_ledger,
    content_ledger,
    evaluate,
    hook_shift_ledger,
    identity_weight,
    parity_coding_ledger,
    parity_normalize,
    shifted_square_weight,
    square_weight,
)
from tcores.coding import content_coding


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
    assert evaluate(WeightLedger.one(), identity_weight()) == 1
    lam = Partition((6, 3, 3, 2))
    L = hook_shift_ledger(lam, 2)
    direct = Fraction(1)
    for hk in lam.hooks():
        direct *= Fraction((hk - 2) * (hk + 2), hk * hk)
    assert evaluate(L, identity_weight()) == direct


def test_evaluate_division_by_zero():
    with pytest.raises(DivisionByZeroWeightError):
        evaluate(WeightLedger({0: -1}), identity_weight())
    # zero with a positive exponent is fine: the product is zero
    assert evaluate(WeightLedger({0: 1, 2: 3}), identity_weight()) == 0


def test_evaluate_homomorphism():
    L1 = WeightLedger({1: 2, 4: -1})
    L2 = WeightLedger({2: 1, 4: 2}, sign=-1)
    tau = square_weight()
    assert evaluate(L1 * L2, tau) == evaluate(L1, tau) * evaluate(L2, tau)


def test_shifted_square_weight_z_coefficient():
    # with tau(k) = 1 + z k^2, the first-order z coefficient of both sides
    # agreeing forces the size formula
    lam = Partition((8, 4, 3, 2, 2, 1))
    t = 5
    c = core_coding(lam, t)
    tau = shifted_square_weight(order=1)
    lhs = evaluate(hook_shift_ledger(lam, t), tau)
    rhs = evaluate(coding_difference_ledger(c, lam.small_hook_counts(t), t), tau)
    assert lhs.coeffs == rhs.coeffs
    # the identity-weight special case of the same ledger pair
    assert evaluate(hook_shift_ledger(lam, t), identity_weight()) == evaluate(
        coding_difference_ledger(c, lam.small_hook_counts(t), t), identity_weight()
    )


def test_size_reconstruction_from_z_coefficient():
    # sum over hooks of (h-t)^2 + (h+t)^2 - 2h^2 equals 2 t^2 |lambda|
    for t in (3, 5):
        for lam in enumerate_t_cores(t, 10):
            total = sum((h - t) ** 2 + (h + t) ** 2 - 2 * h * h for h in lam.hooks())
            assert total == 2 * t * t * lam.size
