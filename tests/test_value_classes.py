"""The contract of the package's frozen slotted value classes.

Every frozen slotted dataclass defined in ``coopcache`` is found by walking
the package, so a new one is covered as soon as it exists (and fails here
until it has a sample below).  Whatever its ``__init__`` does, each must
behave as a plain frozen dataclass with the same fields: fields cannot be
assigned or deleted, ``repr``, ``==`` and ``hash`` are those of a plain
twin, defaults and keywords construct it, and ``dataclasses.replace``
re-runs its validation.
"""

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import coopcache
from coopcache import Constituent, FragmentId, XorSymbol


def _value_classes():
    found = {}
    for info in pkgutil.iter_modules(coopcache.__path__):
        module = importlib.import_module(f"coopcache.{info.name}")
        for name, cls in vars(module).items():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
                and "__slots__" in cls.__dict__
            ):
                found[name] = cls
    return found


VALUE_CLASSES = _value_classes()

_FRAG = FragmentId(3, (1, 2), "u", 1, 4)
_SYM = XorSymbol(1, (1, 2, 3), (Constituent(2, _FRAG),), Fraction(1, 8))

# per class: keyword arguments for two unequal instances, and one change
# that its validation refuses (None when it validates nothing)
SAMPLES = {
    "GroupPartition": (
        dict(groups=((1, 2), (3, 4)), round_index=2),
        dict(groups=((1, 3),)),
        dict(groups=((2, 1),)),
    ),
    "FragmentId": (
        dict(file=3, subset=(1, 2), part="u", index=1, count=4),
        dict(file=3, subset=(1, 2), part="s", index=0, count=1),
        dict(index=4),
    ),
    "Constituent": (
        dict(receiver=2, fragment=_FRAG),
        dict(receiver=3, fragment=_FRAG),
        None,
    ),
    "XorSymbol": (
        dict(sender=1, group=(1, 2, 3), constituents=(Constituent(2, _FRAG),),
             size=Fraction(1, 8), payload=None, redundant=True),
        dict(sender=0, group=(1, 2), constituents=(), size=Fraction(1, 4)),
        None,
    ),
    "LogEntry": (
        dict(slot=0, round_index=-1, sender=0, group=(1, 2, 3),
             receivers=(1, 2, 3), bits=Fraction(1, 8), symbol=_SYM),
        dict(slot=1, round_index=0, sender=1, group=(1, 2), receivers=(2,),
             bits=5, symbol=_SYM),
        None,
    ),
}


def test_every_value_class_has_a_sample():
    assert sorted(VALUE_CLASSES) == sorted(SAMPLES)


def _plain_twin(cls):
    """A plain frozen dataclass (no slots, dataclasses' own ``__init__``)
    with ``cls``'s name, fields, defaults and validation."""
    fields = [
        (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=True, namespace=namespace
    )


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_value_class_is_frozen(name):
    cls = VALUE_CLASSES[name]
    obj = cls(**SAMPLES[name][0])
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
    with pytest.raises((AttributeError, TypeError)):
        obj.not_a_field = 1  # slotted: no instance dict


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_value_class_matches_its_plain_twin(name):
    cls, twin = VALUE_CLASSES[name], _plain_twin(VALUE_CLASSES[name])
    first, second, _ = SAMPLES[name]
    objs = [cls(**first), cls(**first), cls(**second)]
    twins = [twin(**first), twin(**first), twin(**second)]
    assert [repr(o) for o in objs] == [repr(o) for o in twins]
    assert [hash(o) for o in objs] == [hash(o) for o in twins]
    assert [[a == b for b in objs] for a in objs] == [
        [a == b for b in twins] for a in twins
    ]
    assert objs[0] == objs[1] and objs[0] != objs[2]


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_value_class_defaults_and_keywords(name):
    cls = VALUE_CLASSES[name]
    assert str(inspect.signature(cls)) == str(inspect.signature(_plain_twin(cls)))
    first, second, _ = SAMPLES[name]
    fields = dataclasses.fields(cls)
    positional = cls(*(first[f.name] for f in fields if f.name in first))
    assert positional == cls(**first)
    for f in fields:
        if f.default is not dataclasses.MISSING and f.name not in second:
            assert getattr(cls(**second), f.name) == f.default
    with pytest.raises(TypeError):
        cls(**first, not_a_field=1)


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_value_class_replace_revalidates(name):
    cls = VALUE_CLASSES[name]
    first, second, invalid = SAMPLES[name]
    obj = cls(**first)
    assert dataclasses.replace(obj) == obj
    assert dataclasses.replace(obj, **second) == cls(**{**first, **second})
    if invalid is None:
        assert not hasattr(cls, "__post_init__")
        return
    with pytest.raises(ValueError) as direct:
        cls(**{**first, **invalid})
    with pytest.raises(ValueError) as replaced:
        dataclasses.replace(obj, **invalid)
    assert str(replaced.value) == str(direct.value)

