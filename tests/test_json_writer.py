"""Property tests of the one-pass canonical JSON writer and of `format_float`
against the recursive writer and the float formatter they replaced, kept
here as the reference."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nanomech.cli import canonical_json, format_float


def reference_format_float(v: float) -> str:
    if v != v:
        return '"nan"'
    if v in (float("inf"), float("-inf")):
        return json.dumps(str(v))
    return f"{v:.17g}"


def reference_fragment(obj, indent):
    """The text of `obj` at `indent`, one joined fragment per level."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f"{pad}  {json.dumps(str(k))}: "
                         f"{reference_fragment(obj[k], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {reference_fragment(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_format_float(float(obj))
    if isinstance(obj, complex):
        return reference_fragment({"re": obj.real, "im": obj.imag}, indent)
    return json.dumps(str(obj))


SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
           -2.2250738585072009e-308, 1e-310, 1.7976931348623157e308]
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                             allow_subnormal=True), st.sampled_from(SPECIAL))
texts = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x7fé€😀 {}[],:'),
                          st.characters()))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), texts, floats,
    floats.map(np.float64),
    st.floats(width=32, allow_subnormal=True).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.builds(complex, floats, floats),
    st.builds(np.complex128, floats),
    st.sampled_from([np.bool_(True), np.float16(0.5), np.complex64(1 - 2j),
                     b"bytes", object]))
# keys of one dict are all text or all ints, as sorted() needs
keys = st.one_of(st.just(texts), st.just(st.integers()))
trees = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    keys.flatmap(lambda k: st.dictionaries(k, inner, max_size=4))),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_canonical_json_matches_recursive_reference(tree):
    assert canonical_json(tree) == reference_fragment(tree, 0) + "\n"


@settings(max_examples=300, deadline=None)
@given(floats)
def test_format_float_matches_reference(v):
    assert format_float(v) == reference_format_float(v)


def test_canonical_json_of_empty_and_nested_containers():
    tree = {"a": [], "b": {}, "c": [[], {}, ()]}
    text = canonical_json(tree)
    assert text == reference_fragment(tree, 0) + "\n"
    assert json.loads(text) == {"a": [], "b": {}, "c": [[], {}, []]}
