"""Differential tests: vectorized bit-plane engine vs bit-serial reference.

Every test runs the *same* program on two APs that differ only in backend
and then asserts bit-exact equality of the full CAM cell matrix (every
field *and* the service columns, i.e. carry/borrow state and division flag)
plus equality of the data-independent cycle counters (compare cycles, write
cycles, compared bits).  ``written_bits``/``row_writes`` are deliberately
excluded: the vectorized backend charges a documented all-rows upper bound
for pass writes instead of replaying tags.
"""

import numpy as np
import pytest

from repro.ap.lut import AND_LUT, COPY_LUT, NOT_LUT, OR_LUT, XOR_LUT
from repro.ap.processor2d import AssociativeProcessor2D
from repro.mapping.softmap import SoftmAPMapping
from repro.quant.precision import PrecisionConfig


def make_pair(rows, columns):
    return (
        AssociativeProcessor2D(rows=rows, columns=columns, engine="reference"),
        AssociativeProcessor2D(rows=rows, columns=columns, engine="vectorized"),
    )


def assert_parity(reference, vectorized):
    assert np.array_equal(reference.cam.snapshot(), vectorized.cam.snapshot()), (
        "CAM cells diverged between backends"
    )
    ref, vec = reference.stats, vectorized.stats
    assert ref.compare_cycles == vec.compare_cycles
    assert ref.write_cycles == vec.write_cycles
    assert ref.compared_bits == vec.compared_bits
    assert ref.total_cycles == vec.total_cycles


def run_on_both(rows, columns, program):
    """Run ``program(ap)`` on both backends and assert full parity.

    Returns the two program return values (e.g. borrow vectors) so the
    caller can compare operation outputs as well.
    """
    reference, vectorized = make_pair(rows, columns)
    ref_out = program(reference)
    vec_out = program(vectorized)
    assert_parity(reference, vectorized)
    return ref_out, vec_out


def random_words(rng, rows, bits):
    return rng.integers(0, 1 << bits, size=rows, dtype=np.int64)


class TestBackendSelection:
    def test_backend_is_validated(self):
        with pytest.raises(ValueError):
            AssociativeProcessor2D(rows=2, columns=8, engine="quantum")

    def test_reference_has_no_engine(self):
        ap = AssociativeProcessor2D(rows=2, columns=8)
        assert ap.engine == "reference"
        assert ap._engine is None

    def test_vectorized_has_engine(self):
        ap = AssociativeProcessor2D(rows=2, columns=8, engine="vectorized")
        assert ap._engine is not None


class TestLogicParity:
    @pytest.mark.parametrize("op", ["xor", "and_", "or_"])
    @pytest.mark.parametrize("widths", [(4, 4, 4), (3, 5, 9), (6, 2, 8)])
    def test_binary_logic(self, rng, op, widths):
        a_bits, b_bits, r_bits = widths
        rows = 16

        def program(ap):
            a = ap.allocate_field("a", a_bits)
            b = ap.allocate_field("b", b_bits)
            r = ap.allocate_field("r", r_bits)
            ap.write_field(a, random_words(np.random.default_rng(1), rows, a_bits))
            ap.write_field(b, random_words(np.random.default_rng(2), rows, b_bits))
            getattr(ap, op)(a, b, r)
            return ap.read_field(r)

        ref, vec = run_on_both(rows, 40, program)
        assert np.array_equal(ref, vec)

    def test_not_with_wide_result(self):
        def program(ap):
            a = ap.allocate_field("a", 4)
            r = ap.allocate_field("r", 9)
            ap.write_field(a, np.array([0, 15, 5, 10]))
            ap.not_(a, r)
            return ap.read_field(r)

        ref, vec = run_on_both(4, 30, program)
        assert np.array_equal(ref, vec)

    def test_xor_zero_column_collision_quirk(self):
        """Result bits past both operand widths: the collapsed compare key
        of the second XOR pass matches every row, so they read as 1 — on
        both backends."""

        def program(ap):
            a = ap.allocate_field("a", 3)
            b = ap.allocate_field("b", 3)
            r = ap.allocate_field("r", 8)
            ap.write_field(a, np.array([1, 2]))
            ap.write_field(b, np.array([0, 1]))
            ap.xor(a, b, r)
            return ap.read_field(r)

        ref, vec = run_on_both(2, 30, program)
        assert np.array_equal(ref, vec)
        assert np.all(ref >> 3 == 0b11111)

    def test_aliased_logic_operands_fall_back(self):
        """``xor(a, a, r)`` binds both roles to the same columns, which
        collapses the compare key in the reference (yielding the all-ones
        quirk, not zero); the engine must decline and fall back."""

        def program(ap):
            a = ap.allocate_field("a", 4)
            r = ap.allocate_field("r", 4)
            ap.write_field(a, np.array([5, 9, 0]))
            ap.xor(a, a, r)
            return ap.read_field(r)

        ref, vec = run_on_both(3, 20, program)
        assert np.array_equal(ref, vec)
        assert list(ref) == [15, 15, 15]  # collapsed-key quirk, not a^a=0

    def test_partially_aliased_logic_operands_fall_back(self):
        def program(ap):
            a = ap.allocate_field("a", 6)
            r = ap.allocate_field("r", 6)
            ap.write_field(a, np.array([5, 47, 63]))
            ap.and_(a, a.slice(0, 4), r)
            return ap.read_field(r)

        ref, vec = run_on_both(3, 20, program)
        assert np.array_equal(ref, vec)

    def test_conditional_masked_copy(self, rng):
        rows = 12

        def program(ap):
            src = ap.allocate_field("src", 6)
            flag = ap.allocate_field("flag", 1)
            dst = ap.allocate_field("dst", 4)
            ap.write_field(src, random_words(np.random.default_rng(3), rows, 6))
            ap.write_field(flag, random_words(np.random.default_rng(4), rows, 1))
            mask = np.arange(rows) % 3 != 0
            ap.copy(src, dst, condition=(flag.columns[0], 1), row_mask=mask)
            return ap.read_field(dst)

        ref, vec = run_on_both(rows, 40, program)
        assert np.array_equal(ref, vec)


class TestArithmeticParity:
    @pytest.mark.parametrize("a_bits,b_bits,width", [
        (4, 4, None), (3, 8, None), (8, 5, 4), (6, 6, 6),
    ])
    def test_add_random(self, rng, a_bits, b_bits, width):
        rows = 24

        def program(ap):
            a = ap.allocate_field("a", a_bits)
            b = ap.allocate_field("b", b_bits)
            ap.write_field(a, random_words(np.random.default_rng(5), rows, a_bits))
            ap.write_field(b, random_words(np.random.default_rng(6), rows, b_bits))
            ap.add(a, b, width=width)
            return ap.read_field(b)

        ref, vec = run_on_both(rows, 40, program)
        assert np.array_equal(ref, vec)

    def test_add_edge_values_wrap(self):
        """Zero operands and max-magnitude operands (wrap-around carry)."""

        def program(ap):
            a = ap.allocate_field("a", 5)
            b = ap.allocate_field("b", 5)
            ap.write_field(a, np.array([0, 31, 31, 0, 16]))
            ap.write_field(b, np.array([0, 31, 1, 31, 16]))
            ap.add(a, b)
            return ap.read_field(b)

        ref, vec = run_on_both(5, 30, program)
        assert np.array_equal(ref, vec)
        assert list(ref) == [0, 30, 0, 31, 0]  # modulo-32 wrap

    def test_conditional_add(self, rng):
        rows = 16

        def program(ap):
            a = ap.allocate_field("a", 4)
            b = ap.allocate_field("b", 6)
            p = ap.allocate_field("p", 1)
            ap.write_field(a, random_words(np.random.default_rng(7), rows, 4))
            ap.write_field(b, random_words(np.random.default_rng(8), rows, 6))
            ap.write_field(p, random_words(np.random.default_rng(9), rows, 1))
            ap.add(a, b, condition=(p.columns[0], 1))
            return ap.read_field(b)

        ref, vec = run_on_both(rows, 40, program)
        assert np.array_equal(ref, vec)

    def test_subtract_returns_identical_borrow(self, rng):
        rows = 32

        def program(ap):
            a = ap.allocate_field("a", 6)
            b = ap.allocate_field("b", 8)
            ap.write_field(a, random_words(np.random.default_rng(10), rows, 6))
            ap.write_field(b, random_words(np.random.default_rng(11), rows, 8))
            borrow = ap.subtract(a, b)
            return ap.read_field(a), borrow

        (ref_a, ref_borrow), (vec_a, vec_borrow) = run_on_both(rows, 40, program)
        assert np.array_equal(ref_a, vec_a)
        assert np.array_equal(ref_borrow, vec_borrow)

    def test_aliased_add_falls_back_to_reference(self):
        """``add(f, f)`` shares every operand column; the engine must decline
        and the fallback must still match the reference bit for bit."""

        def program(ap):
            a = ap.allocate_field("a", 4)
            ap.write_field(a, np.array([5, 9, 15]))
            ap.add(a, a)
            return ap.read_field(a)

        ref, vec = run_on_both(3, 20, program)
        assert np.array_equal(ref, vec)


class TestMultiplyParity:
    @pytest.mark.parametrize("a_bits,b_bits,r_bits", [
        (4, 4, 8), (6, 3, 9), (4, 4, 5), (3, 6, 12),
    ])
    def test_multiply_random(self, rng, a_bits, b_bits, r_bits):
        rows = 16

        def program(ap):
            a = ap.allocate_field("a", a_bits)
            b = ap.allocate_field("b", b_bits)
            r = ap.allocate_field("r", r_bits)
            ap.write_field(a, random_words(np.random.default_rng(12), rows, a_bits))
            ap.write_field(b, random_words(np.random.default_rng(13), rows, b_bits))
            ap.multiply(a, b, r)
            return ap.read_field(r)

        ref, vec = run_on_both(rows, 60, program)
        assert np.array_equal(ref, vec)

    def test_multiply_edge_values(self):
        def program(ap):
            a = ap.allocate_field("a", 4)
            b = ap.allocate_field("b", 4)
            r = ap.allocate_field("r", 8)
            ap.write_field(a, np.array([0, 15, 15, 1]))
            ap.write_field(b, np.array([7, 0, 15, 1]))
            ap.multiply(a, b, r)
            return ap.read_field(r)

        ref, vec = run_on_both(4, 40, program)
        assert np.array_equal(ref, vec)
        assert list(ref) == [0, 0, 225, 1]

    def test_square(self, rng):
        rows = 8

        def program(ap):
            a = ap.allocate_field("a", 5)
            scratch = ap.allocate_field("scratch", 5)
            r = ap.allocate_field("r", 10)
            ap.write_field(a, random_words(np.random.default_rng(14), rows, 5))
            ap.square(a, scratch, r)
            return ap.read_field(r)

        ref, vec = run_on_both(rows, 50, program)
        assert np.array_equal(ref, vec)


class TestShiftParity:
    @pytest.mark.parametrize("max_shift_bits", [None, 2, 3])
    def test_variable_shift(self, rng, max_shift_bits):
        rows = 16

        def program(ap):
            src = ap.allocate_field("src", 8)
            shift = ap.allocate_field("shift", 4)
            dst = ap.allocate_field("dst", 8)
            ap.write_field(src, random_words(np.random.default_rng(15), rows, 8))
            ap.write_field(shift, random_words(np.random.default_rng(16), rows, 4))
            ap.shift_right_variable(src, shift, dst, max_shift_bits=max_shift_bits)
            return ap.read_field(dst)

        ref, vec = run_on_both(rows, 40, program)
        assert np.array_equal(ref, vec)

    def test_shift_ignores_bits_past_max_shift(self):
        """With max_shift_bits=2 only the low 2 shift bits participate."""

        def program(ap):
            src = ap.allocate_field("src", 6)
            shift = ap.allocate_field("shift", 4)
            dst = ap.allocate_field("dst", 6)
            ap.write_field(src, np.array([63, 63, 63]))
            ap.write_field(shift, np.array([4, 5, 15]))  # low 2 bits: 0, 1, 3
            ap.shift_right_variable(src, shift, dst, max_shift_bits=2)
            return ap.read_field(dst)

        ref, vec = run_on_both(3, 30, program)
        assert np.array_equal(ref, vec)
        assert list(ref) == [63, 31, 7]

    def test_constant_shifted_view(self, rng):
        def program(ap):
            src = ap.allocate_field("src", 8)
            dst = ap.allocate_field("dst", 5)
            ap.write_field(src, random_words(np.random.default_rng(17), 8, 8))
            view = ap.shifted_view(src, 3)
            ap.copy(view, dst)
            return ap.read_field(dst)

        ref, vec = run_on_both(8, 30, program)
        assert np.array_equal(ref, vec)


class TestDivideParity:
    @pytest.mark.parametrize("fraction_bits", [0, 3])
    def test_divide_random(self, rng, fraction_bits):
        rows = 24

        def program(ap):
            dividend = ap.allocate_field("dividend", 6)
            divisor = ap.allocate_field("divisor", 5)
            quotient = ap.allocate_field("quotient", 6 + fraction_bits)
            remainder = ap.allocate_field("remainder", 7)
            ap.write_field(
                dividend, random_words(np.random.default_rng(18), rows, 6)
            )
            ap.write_field(
                divisor, random_words(np.random.default_rng(19), rows, 5)
            )
            ap.divide(dividend, divisor, quotient, remainder,
                      fraction_bits=fraction_bits)
            return ap.read_field(quotient), ap.read_field(remainder)

        (ref_q, ref_r), (vec_q, vec_r) = run_on_both(rows, 80, program)
        assert np.array_equal(ref_q, vec_q)
        assert np.array_equal(ref_r, vec_r)

    def test_divide_by_zero_saturates_identically(self):
        """The restoring recurrence never borrows against a zero divisor, so
        the quotient saturates to all ones and the remainder register wraps
        at its own width — identically on both backends."""

        def program(ap):
            dividend = ap.allocate_field("dividend", 5)
            divisor = ap.allocate_field("divisor", 4)
            quotient = ap.allocate_field("quotient", 5)
            remainder = ap.allocate_field("remainder", 5)
            ap.write_field(dividend, np.array([21, 0, 31]))
            ap.write_field(divisor, np.array([0, 0, 3]))
            ap.divide(dividend, divisor, quotient, remainder)
            return ap.read_field(quotient), ap.read_field(remainder)

        (ref_q, ref_r), (vec_q, vec_r) = run_on_both(3, 60, program)
        assert np.array_equal(ref_q, vec_q)
        assert np.array_equal(ref_r, vec_r)
        assert list(ref_q[:2]) == [31, 31]


class TestReductionParity:
    def test_reduce_and_broadcast(self, rng):
        rows = 16

        def program(ap):
            field = ap.allocate_field("field", 5)
            dest = ap.allocate_field("dest", 10)
            ap.write_field(field, random_words(np.random.default_rng(20), rows, 5))
            ap.reduce_and_broadcast(field, dest)
            return ap.read_field(dest)

        ref, vec = run_on_both(rows, 40, program)
        assert np.array_equal(ref, vec)

    def test_segmented_reduce_and_broadcast(self, rng):
        rows, segment = 24, 6

        def program(ap):
            field = ap.allocate_field("field", 5)
            dest = ap.allocate_field("dest", 10)
            values = random_words(np.random.default_rng(21), rows, 5)
            ap.write_field(field, values)
            ap.reduce_and_broadcast_segments(field, dest, segment)
            return ap.read_field(dest), values

        (ref_out, values), (vec_out, _) = run_on_both(rows, 40, program)
        assert np.array_equal(ref_out, vec_out)
        expected = values.reshape(-1, segment).sum(axis=1)
        assert np.array_equal(ref_out.reshape(-1, segment)[:, 0], expected)

    def test_segmented_reduce_validates_rows(self):
        ap = AssociativeProcessor2D(rows=10, columns=30, engine="vectorized")
        field = ap.allocate_field("field", 4)
        dest = ap.allocate_field("dest", 8)
        with pytest.raises(ValueError):
            ap.reduce_sum_segmented(field, dest, 4)


class TestFullExponentialProgram:
    """End-to-end differential test of the complete softmax dataflow —
    Barrett multiply, variable shift, polynomial, reduction and restoring
    division composed exactly as the paper's Fig. 5 program."""

    @pytest.mark.parametrize("m", [4, 6])
    def test_softmap_dataflow_parity(self, rng, m):
        mapping = SoftmAPMapping(
            precision=PrecisionConfig(m, 0, 16), sequence_length=16
        )
        scores = rng.normal(0.0, 2.0, 16)
        reference = mapping.execute_functional(scores, engine="reference")
        vectorized = mapping.execute_functional(scores, engine="vectorized")
        assert np.array_equal(reference, vectorized)

    def test_batched_dataflow_parity_and_loop_equivalence(self, rng):
        mapping = SoftmAPMapping(sequence_length=12)
        scores = rng.normal(0.0, 2.0, (4, 12))
        reference = mapping.execute_functional_batch(scores, engine="reference")
        vectorized = mapping.execute_functional_batch(scores, engine="vectorized")
        looped = np.stack(
            [mapping.execute_functional(row, engine="vectorized") for row in scores]
        )
        assert np.array_equal(reference, vectorized)
        assert np.array_equal(reference, looped)
