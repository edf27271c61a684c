"""Tests for the util helpers."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util import Interner
from repro.util.rng import DEFAULT_SEED, make_rng
from repro.util.serde import _NAN_SENTINEL, _sanitize, canonical_json
from repro.util.units import GiB, KiB, MiB, fmt_bytes, fmt_count, fmt_time, ms, ns, us
from repro.util.validation import check_in, check_non_negative, check_positive


class TestUnits:
    def test_byte_constants(self):
        assert MiB == 1024 * KiB
        assert GiB == 1024 * MiB

    def test_time_constants(self):
        assert us == pytest.approx(1000 * ns)
        assert ms == pytest.approx(1000 * us)

    @pytest.mark.parametrize("value,expected", [
        (2.0, "2.00s"),
        (0.0042, "4.20ms"),
        (3.5e-6, "3.50us"),
        (250e-9, "250ns"),
    ])
    def test_fmt_time(self, value, expected):
        assert fmt_time(value) == expected

    def test_fmt_time_nan(self):
        assert fmt_time(float("nan")) == "nan"

    @pytest.mark.parametrize("value,expected", [
        (512, "512B"),
        (2048, "2.00KiB"),
        (3 * MiB, "3.00MiB"),
        (GiB, "1.00GiB"),
    ])
    def test_fmt_bytes(self, value, expected):
        assert fmt_bytes(value) == expected

    @pytest.mark.parametrize("value,expected", [
        (42, "42"),
        (1500, "1.5K"),
        (2_500_000, "2.50M"),
        (7_500_000_000, "7.50B"),
    ])
    def test_fmt_count(self, value, expected):
        assert fmt_count(value) == expected


class TestRng:
    def test_deterministic_default(self):
        assert make_rng().integers(1 << 30) == make_rng().integers(1 << 30)

    def test_explicit_seed(self):
        a = make_rng(7).random(4)
        b = make_rng(7).random(4)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert make_rng(1).integers(1 << 30) != make_rng(2).integers(1 << 30)

    def test_default_seed_constant(self):
        assert DEFAULT_SEED == 0x5EED


class TestInterner:
    def test_dense_ids_in_first_seen_order(self):
        intern = Interner()
        assert [intern(k) for k in ("x", ("a", 3), "x", "y")] == [0, 1, 0, 2]

    def test_idempotent(self):
        intern = Interner()
        assert intern("addr") == intern("addr") == 0

    def test_len_and_contains(self):
        intern = Interner()
        intern("x")
        intern("y")
        assert len(intern) == 2
        assert "x" in intern
        assert "z" not in intern

    def test_same_sequence_same_ids(self):
        keys = [("field", i % 3) for i in range(10)]
        a, b = Interner(), Interner()
        assert [a(k) for k in keys] == [b(k) for k in keys]


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_in(self):
        check_in("mode", "a", ("a", "b"))
        with pytest.raises(ValueError, match="one of"):
            check_in("mode", "z", ("a", "b"))


#: Nested JSON-shaped documents whose floats include NaN (never ±inf).
documents = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=8),
        st.floats(allow_infinity=False),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=24,
)


def sanitized_dump(obj) -> str:
    """The canonical dump that always builds the sanitized copy first."""
    return json.dumps(
        _sanitize(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_equals_sanitized_dump(self, doc):
        assert canonical_json(doc) == sanitized_dump(doc)

    def test_nan_becomes_the_sentinel(self):
        doc = {"b": [1.5, float("nan")], "a": (float("nan"),)}
        assert canonical_json(doc) == (
            f'{{"a":["{_NAN_SENTINEL}"],"b":[1.5,"{_NAN_SENTINEL}"]}}'
        )

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinity_raises(self, value):
        with pytest.raises(ValueError):
            canonical_json({"x": [1.0, value]})
        with pytest.raises(ValueError):
            canonical_json({"x": [float("nan"), value]})

    def test_golden_spec_keys_unchanged(self):
        from repro.campaign.crosscheck import golden_specs

        keys = "\n".join(spec.key for spec in golden_specs())
        assert len(golden_specs()) == 19
        assert hashlib.sha256(keys.encode()).hexdigest() == (
            "0acb78103132151b0606c74408b7f7868f226276890c11455ed532663c6e1e05"
        )
