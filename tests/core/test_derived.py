"""Unit tests for the derived-metric formula language (Section V-D)."""

from __future__ import annotations

import math

import pytest

from repro.core.derived import (
    define_derived,
    evaluate,
    flop_waste_formula,
    formula_columns,
    parse_formula,
    relative_efficiency_formula,
)
from repro.errors import FormulaError, MetricError
from repro.core.metrics import MetricKind, MetricTable


def ev(src, cols=None):
    cols = cols or {}
    return evaluate(src, resolver=lambda mid: cols.get(mid, 0.0))


class TestParsing:
    def test_number(self):
        assert ev("42") == 42.0

    def test_scientific_notation(self):
        assert ev("1.5e3") == 1500.0
        assert ev("2E-2") == pytest.approx(0.02)

    def test_column_reference(self):
        assert ev("$0", {0: 7.0}) == 7.0
        assert ev("$12", {12: 3.0}) == 3.0

    def test_precedence(self):
        assert ev("2 + 3 * 4") == 14.0
        assert ev("(2 + 3) * 4") == 20.0
        assert ev("2 * 3 ^ 2") == 18.0

    def test_power_right_associative(self):
        assert ev("2 ^ 3 ^ 2") == 512.0

    def test_unary_minus(self):
        assert ev("-$0 + 10", {0: 4.0}) == 6.0
        assert ev("--3") == 3.0
        assert ev("-2^2") == -4.0  # unary binds looser than ^ via power chain

    def test_functions(self):
        assert ev("sqrt(16)") == 4.0
        assert ev("abs(-3)") == 3.0
        assert ev("min($0, $1)", {0: 2.0, 1: 5.0}) == 2.0
        assert ev("max($0, $1)", {0: 2.0, 1: 5.0}) == 5.0
        assert ev("log(e)") == pytest.approx(1.0)
        assert ev("log2(8)") == 3.0
        assert ev("floor(2.7) + ceil(2.1)") == 5.0

    def test_constants(self):
        assert ev("pi") == pytest.approx(math.pi)

    def test_whitespace_insensitive(self):
        assert ev("  $0   *2 ", {0: 3.0}) == 6.0

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "$", "$x", "2 +", "(1", "1)", "foo(1)", "min(1)", "1 2",
         "2 ** 3", "sqrt 4", "min(1, 2, 3)", "@1",
         # non-ASCII "digits" pass str.isdigit() but not float()/int();
         # multi-dot numerals lex as one token — all must raise
         # FormulaError, never ValueError (the server maps FormulaError
         # to a structured 400; a ValueError would surface as a 500)
         "²", "$²", "1.2.3", "1..2", "٤"],
    )
    def test_malformed_formulas_rejected(self, bad):
        with pytest.raises(FormulaError):
            parse_formula(bad)

    def test_formula_columns(self):
        assert formula_columns("4 * $0 - $1 + min($2, $0)") == {0, 1, 2}
        assert formula_columns("1 + 2") == set()


class TestEvaluation:
    def test_division_by_zero_yields_zero(self):
        assert ev("$0 / $1", {0: 5.0, 1: 0.0}) == 0.0

    def test_missing_column_is_zero(self):
        # sparse data: an absent metric value is zero by definition
        assert ev("$0 + 1", {}) == 1.0

    def test_overflow_power_is_zero(self):
        assert ev("10 ^ 10000") == 0.0

    def test_negative_sqrt_is_zero(self):
        assert ev("sqrt(0 - 4)") == 0.0

    def test_log_of_nonpositive_is_zero(self):
        assert ev("log(0)") == 0.0
        assert ev("log10(-1)") == 0.0


class TestDefineDerived:
    def test_register_and_lookup(self):
        table = MetricTable()
        cyc = table.add("cycles")
        flops = table.add("flops")
        waste = define_derived(
            table, "fp waste", flop_waste_formula(cyc.mid, flops.mid, 4.0)
        )
        assert waste.kind is MetricKind.DERIVED
        assert waste.mid == 2
        assert ev(waste.formula, {cyc.mid: 100.0, flops.mid: 150.0}) == 250.0

    def test_relative_efficiency(self):
        table = MetricTable()
        cyc = table.add("cycles")
        flops = table.add("flops")
        eff = define_derived(
            table, "efficiency", relative_efficiency_formula(cyc.mid, flops.mid, 4.0)
        )
        assert ev(eff.formula, {cyc.mid: 100.0, flops.mid: 24.0}) == pytest.approx(0.06)
        # no cycles -> efficiency defined as 0
        assert ev(eff.formula, {cyc.mid: 0.0, flops.mid: 0.0}) == 0.0

    def test_unknown_column_rejected_at_definition(self):
        table = MetricTable()
        table.add("cycles")
        with pytest.raises(MetricError):
            define_derived(table, "bad", "$5 * 2")

    def test_derived_may_reference_derived(self):
        table = MetricTable()
        cyc = table.add("cycles")
        d1 = define_derived(table, "double", f"2 * ${cyc.mid}")
        d2 = define_derived(table, "quad", f"2 * ${d1.mid}")
        cols = {cyc.mid: 3.0}

        def resolver(mid):
            if mid == d1.mid:
                return evaluate(d1.formula, resolver)
            return cols.get(mid, 0.0)

        assert evaluate(d2.formula, resolver) == 12.0

    def test_malformed_formula_rejected_at_definition(self):
        table = MetricTable()
        with pytest.raises(FormulaError):
            define_derived(table, "bad", "1 +")
