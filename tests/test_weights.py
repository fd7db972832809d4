from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from tcores import weights
from tcores.coding import class_sorted_coding, coding_to_core, core_coding, enumerate_codings
from tcores.partitions import Partition, enumerate_t_cores, partitions_up_to
from tcores.weights import (
    DivisionByZeroWeightError,
    WeightLedger,
    ZeroArgumentError,
    coding_difference_ledger,
    content_ledger,
    evaluate,
    hook_shift_ledger,
    parity_coding_fold,
    parity_coding_ledger,
    parity_fold,
    parity_normalize,
)
from tcores.coding import content_coding
from tcores.qseries import TruncatedSeries
from tcores.rings import RationalField

from oracles import (
    one_parity_coding_ledger,
    one_parity_normalize,
    per_cell_content_ledger,
    seeded_partitions,
    series_pow,
)


def test_ledger_basics():
    one = WeightLedger.one()
    assert one == WeightLedger()
    L = WeightLedger({1: 2, 3: -1})
    assert (L * one) == L
    assert L / L == WeightLedger()
    assert (L ** 2) == WeightLedger({1: 4, 3: -2})
    assert str(WeightLedger({-1: 1, 3: 1, 1: -2})) == "+ (-1,1) (1,-2) (3,1)"
    assert str(WeightLedger({2: 1}, sign=-1)) == "- (2,1)"
    assert WeightLedger({1: 1}).negate_arguments() == WeightLedger({-1: 1})


def test_hook_shift_ledger_examples():
    assert hook_shift_ledger(Partition(()), 4) == WeightLedger()
    assert hook_shift_ledger(Partition((1,)), 2) == WeightLedger({-1: 1, 3: 1, 1: -2})
    L = hook_shift_ledger(Partition((6, 3, 3, 2)), 5)
    assert L.total_degree() == 0


def test_coding_ledger_base_is_one():
    for t in range(1, 8):
        c = core_coding(Partition(()), t)
        beta = Partition(()).small_hook_counts(t)
        assert coding_difference_ledger(c, beta) == WeightLedger()


def test_coding_ledger_hand_check_single_cell():
    lam = Partition((1,))
    c = core_coding(lam, 2)
    led = coding_difference_ledger(c, lam.small_hook_counts(2))
    assert led == hook_shift_ledger(lam, 2)
    assert led == WeightLedger({-1: 1, 1: -2, 3: 1})


def test_ledger_identity_sweep():
    for t in range(1, 8):
        for lam in enumerate_t_cores(t, 12):
            lhs = hook_shift_ledger(lam, t)
            c = core_coding(lam, t)
            rhs = coding_difference_ledger(c, lam.small_hook_counts(t))
            assert lhs == rhs, (t, lam)


def test_parity_coding_ledger_sweep():
    for t in range(1, 8):
        for lam in enumerate_t_cores(t, 12):
            c = core_coding(lam, t)
            main = coding_difference_ledger(c, lam.small_hook_counts(t))
            for parity in ("odd", "even"):
                assert parity_normalize(main, parity) == parity_coding_ledger(
                    c, parity
                ), (t, lam, parity)


def test_parity_sign_table():
    # the sign is -1 exactly for t = 3 mod 4 with an odd weight; absorbed
    # into the normalized ledger, so cross-check via a case where it bites
    lam = Partition((1,))
    c = core_coding(lam, 3)
    odd = parity_coding_ledger(c, "odd")
    main = parity_normalize(coding_difference_ledger(c, lam.small_hook_counts(3)), "odd")
    assert odd == main
    assert odd.sign == -1  # lhs has tau(-2) once: one flip


def test_content_ledger():
    assert content_ledger(Partition(()), (0, 0)) == WeightLedger()
    lam = Partition((1,))
    mu = content_coding(core_coding(lam, 2))
    assert content_ledger(mu, lam.small_hook_counts(2)) == hook_shift_ledger(lam, 2)
    lam = Partition((8, 4, 3, 2, 2, 1))
    mu = content_coding(core_coding(lam, 5))
    assert content_ledger(mu, lam.small_hook_counts(5)) == hook_shift_ledger(lam, 5)


def test_content_ledger_sweep():
    for t in range(1, 7):
        for lam in enumerate_t_cores(t, 12):
            mu = content_coding(core_coding(lam, t))
            beta = lam.small_hook_counts(t)
            assert content_ledger(mu, beta) == hook_shift_ledger(lam, t), (t, lam)


def content_cases():
    """(mu, beta, t): every mu = content_coding(v) with its core's beta, for
    t <= 9 and size <= 20, then every partition of size <= 10 as mu with its
    own beta, t = 1..6, then the seeded partitions (the empty one, rows,
    columns and random ones) with their own beta, t = 1..8 in turn."""
    for t in range(1, 10):
        for v in enumerate_codings(t, 20):
            yield content_coding(v), coding_to_core(v).small_hook_counts(t), t
    for t in range(1, 7):
        for mu in partitions_up_to(10):
            yield mu, mu.small_hook_counts(t), t
    for i, mu in enumerate(seeded_partitions(3, 200)):
        t = i % 8 + 1
        yield mu, mu.small_hook_counts(t), t


def test_content_ledger_matches_per_cell_oracle():
    cases = 0
    for mu, beta, t in content_cases():
        assert content_ledger(mu, beta) == per_cell_content_ledger(mu, beta, t), (t, mu)
        cases += 1
    assert cases > 3000


# by hand: negative, zero and odd exponents, a pair k, -k that cancels on
# folding, argument 0 alone and with others, and both signs
HAND_LEDGERS = [
    WeightLedger(),
    WeightLedger({-1: 1}),
    WeightLedger({-3: 1, 3: -1, 2: 5}, sign=-1),
    WeightLedger({-2: 3, -1: -1, 1: 4, 7: -3}),
    WeightLedger({-5: 2, 5: -2, -4: 1}),
    WeightLedger({-6: -3, -2: -5}, sign=-1),
    WeightLedger({0: 1}),
    WeightLedger({0: -2, -1: 3, 1: 1}, sign=-1),
    WeightLedger({0: 3, -7: 2, 7: 1}),
]


def fold_cases():
    """Hand-made ledgers, the hook-shift ledgers of the content cases
    (arguments h - t down to 1 - t, 0 included) and the coding-difference
    ledgers of their codings."""
    yield from HAND_LEDGERS
    for mu, _, t in content_cases():
        yield hook_shift_ledger(mu, t)
    for t in range(1, 10):
        for v in enumerate_codings(t, 20):
            yield coding_difference_ledger(v, coding_to_core(v).small_hook_counts(t))


def test_parity_fold_matches_one_parity_oracle():
    zeros = 0
    for ledger in fold_cases():
        fold = parity_fold(ledger)
        for parity in ("odd", "even"):
            try:
                want = one_parity_normalize(ledger, parity)
            except ZeroArgumentError:
                # argument 0 stops only the odd form, in every route
                assert parity == "odd" and 0 in ledger.exps
                with pytest.raises(ZeroArgumentError):
                    fold.form(parity)
                with pytest.raises(ZeroArgumentError):
                    parity_normalize(ledger, parity)
                zeros += 1
                continue
            assert fold.form(parity) == want == parity_normalize(ledger, parity), (ledger, parity)
    assert zeros > 100
    for t in range(1, 10):
        for v in enumerate_codings(t, 20):
            fold = parity_coding_fold(v)
            for parity in ("odd", "even"):
                assert fold.form(parity) == one_parity_coding_ledger(v, parity), (v, parity)


def first_differing_form(a, b):
    """The first parity, odd then even, at which two folds' forms differ,
    building each form: the route `ParityFold.differing_parity` skips."""
    return next((p for p in ("odd", "even") if a.form(p) != b.form(p)), None)


def test_differing_parity_is_the_first_differing_form():
    # each fold against itself and against twins with the odd flip, the
    # sign, both, or one exponent changed; argument 0 raises in both routes
    cases = raised = 0
    for ledger in fold_cases():
        fold = parity_fold(ledger)
        twins = [
            fold, fold._replace(flip=-fold.flip), fold._replace(sign=-fold.sign),
            fold._replace(sign=-fold.sign, flip=-fold.flip),
            parity_fold(ledger * WeightLedger({1: 1})),
        ]
        for twin in twins:
            try:
                want = first_differing_form(fold, twin)
            except ZeroArgumentError:
                with pytest.raises(ZeroArgumentError):
                    fold.differing_parity(twin)
                raised += 1
                continue
            assert fold.differing_parity(twin) == want, (ledger, twin)
            cases += 1
    assert cases > 10000 and raised > 100


def test_parity_fold_forms():
    fold = parity_fold(WeightLedger({0: -2, -1: 3, -4: 2, 1: 1}, sign=-1))
    assert fold.zero and fold.flip == -1  # 3 + 2 at negative arguments
    assert fold.form("even") == WeightLedger({0: -2, 1: 4, 4: 2}, sign=-1)
    with pytest.raises(ZeroArgumentError):
        fold.form("odd")
    fold = parity_fold(WeightLedger({-1: 3, -4: 3, 1: -3}))
    assert not fold.zero and fold.flip == 1
    assert fold.form("odd") == fold.form("even") == WeightLedger({4: 3})
    for bad in ("Odd", None):
        with pytest.raises(ValueError):
            fold.form(bad)
        with pytest.raises(ValueError):
            parity_normalize(WeightLedger(), bad)


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


def test_evaluate_stays_exact_for_an_int_weight():
    # tau(k) = k: 3^-40 as an int power is a float, read as a Fraction it is exact
    value = evaluate(WeightLedger({3: -40, 2: 1}), lambda k: k)
    assert type(value) is Fraction and value == Fraction(2, 3**40)
    value = evaluate(WeightLedger({3: 2, 2: 1}, sign=-1), lambda k: k)
    assert type(value) is int and value == -18


def test_evaluate_homomorphism():
    L1 = WeightLedger({1: 2, 4: -1})
    L2 = WeightLedger({2: 1, 4: 2}, sign=-1)
    tau = lambda k: Fraction(k * k)
    assert evaluate(L1 * L2, tau) == evaluate(L1, tau) * evaluate(L2, tau)


class PowerSeries(TruncatedSeries):
    """A truncated series with the `**` that `evaluate` raises values by."""

    __pow__ = series_pow


def test_shifted_square_weight_z_coefficient():
    # with tau(k) = 1 + z k^2, the first-order z coefficient of both sides
    # agreeing forces the size formula
    lam = Partition((8, 4, 3, 2, 2, 1))
    t = 5
    c = core_coding(lam, t)

    def tau(k):
        """1 + z k^2 as a series in z, truncated after z^1."""
        return PowerSeries(RationalField(), [Fraction(1), Fraction(k * k)])

    lhs = evaluate(hook_shift_ledger(lam, t), tau)
    rhs = evaluate(coding_difference_ledger(c, lam.small_hook_counts(t)), tau)
    assert lhs.coeffs == rhs.coeffs
    # the identity-weight special case of the same ledger pair
    assert evaluate(hook_shift_ledger(lam, t), Fraction) == evaluate(
        coding_difference_ledger(c, lam.small_hook_counts(t)), Fraction
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
    assert content_ledger(mu, beta) == public(
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
        assert got == one


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
