"""Fuzzing the document loader: every JSON-shaped input either loads a
tensor or raises ValueError or TypeError, never anything else."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat.documents import tensor_from_document, tensor_to_document
from hypermat.tensor import SymTensor


def mostly(valid, invalid):
    """Draw from ``valid`` about nine times in ten, else from ``invalid``:
    one bad field rejects the whole document, so most fields must be good
    for the loader's later checks to be reached. The invalid branch sits on
    a middle value because Hypothesis favours the ends of a range."""
    return st.integers(0, 9).flatmap(lambda k: invalid if k == 5 else valid)


# [space][sign]digits[/digits][space], the denominator zero one time in ten
RATIONAL_TEXT = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+", "-"]),
    st.integers(0, 999),
    st.one_of(st.just(""), st.integers(0, 9).map("/{}".format)),
    st.sampled_from(["", " ", "\n"]))

BAD_TEXT = st.one_of(
    st.sampled_from([
        "1/0", "0/0", "-3/00", "1e5", "2E-3", "1e10000000", "2.5", ".5",
        "inf", "-inf", "Infinity", "nan", "NaN", "1_0", "", " ", "/", "3/",
        "/4", "1/2/3", "--1", "٣"]),
    st.just("9" * 5000),
    # a fixed alphabet: a full-Unicode text() strategy spends seconds
    # building its character tables on a fresh .hypothesis cache
    st.text("0123456789+-/. eEinfa_x\t٣", max_size=6))

JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.floats(),
              RATIONAL_TEXT, BAD_TEXT),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(
            st.sampled_from(["rank", "dim", "entries", "index", "value", ""]),
            children, max_size=3)),
    max_leaves=6)

VALUE = mostly(st.one_of(RATIONAL_TEXT, st.integers(-10 ** 30, 10 ** 30)),
               st.one_of(BAD_TEXT, JSON))


@st.composite
def documents(draw):
    # small shapes, so that in-range and duplicate indices are common
    rank, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    index = mostly(
        st.lists(mostly(st.integers(0, dim - 1), st.integers(-1, dim)),
                 min_size=rank, max_size=rank),
        st.one_of(st.lists(st.integers(0, dim), max_size=rank + 1), JSON))
    entry = mostly(
        st.fixed_dictionaries({"index": index, "value": VALUE},
                              optional={"note": JSON}),
        st.one_of(st.fixed_dictionaries(
            {}, optional={"index": index, "value": VALUE}), JSON))
    doc = {"rank": rank, "dim": dim,
           "entries": draw(st.lists(entry, max_size=5))}
    for field in ("rank", "dim", "entries"):
        fate = draw(st.integers(0, 9))  # middle values again, as in mostly()
        if fate == 4:
            del doc[field]
        elif fate == 5:
            doc[field] = draw(st.one_of(st.integers(-1, 4), JSON))
    if draw(st.booleans()):
        doc["comment"] = draw(JSON)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=mostly(documents(), JSON))
def test_loader_loads_or_raises_value_or_type_error(doc):
    try:
        tensor = tensor_from_document(doc)
    except (ValueError, TypeError):
        return
    assert isinstance(tensor, SymTensor)
    assert tensor_from_document(tensor_to_document(tensor)) == tensor
