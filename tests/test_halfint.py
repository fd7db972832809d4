import pytest

from tcores.coding import CoreCoding
from tcores.halfint import HalfInt


def test_construction_and_str():
    assert str(HalfInt(14)) == "7"
    assert str(HalfInt(21)) == "21/2"
    assert str(HalfInt(-11)) == "-11/2"
    assert str(HalfInt(-6)) == "-3"
    assert repr(HalfInt(21)) == "HalfInt(21)"
    with pytest.raises(TypeError):
        HalfInt(1.5)


def test_parse():
    assert HalfInt.parse("21/2") == HalfInt(21)
    assert HalfInt.parse("-11/2") == HalfInt(-11)
    assert HalfInt.parse("4") == HalfInt(8)
    with pytest.raises(ValueError):
        HalfInt.parse("1/3")


def test_parse_rejects_unreduced_halves():
    # "4/2" is not text that str() prints; it used to parse as 2
    for text in ("4/2", "-2/2", "0/2"):
        with pytest.raises(ValueError):
            HalfInt.parse(text)
    with pytest.raises(ValueError):
        CoreCoding.parse("2/2,0/2,-2/2", 3)
    assert str(CoreCoding.parse("1,0,-1", 3)) == "1,0,-1"


def test_eq_and_hash():
    assert HalfInt(3) == HalfInt(3) and HalfInt(3) != HalfInt(5)
    assert len({HalfInt(3), HalfInt(3), HalfInt(5)}) == 2
