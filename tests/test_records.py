"""The package's record types against their ``@dataclass`` twins.

Every record class is a plain class whose methods come from one base,
``lyrics._Record``.  Each is checked here against the dataclass it replaced,
declared in ``reference.TWINS`` with the same fields, defaults and flags:
``repr``, ``==`` and ``hash``, copies and pickles, the frozen types'
refusals, the constructor's arguments and ``__replace__`` must read as the
generated methods do, with only the class name told apart.
"""

import copy
import dataclasses
import pickle
import random
import re
import sys

import pytest

from lyricmelody import (
    Aspect,
    DecodeMode,
    DecodeOptions,
    HarmonyTable,
    InputError,
    Melody,
    ModelBundle,
    UniformScorer,
    build_structure_matrix,
    decode,
    default_reward_config,
    evaluate_pair,
    rest,
    score_rewards,
    train_model_bundle,
)
from lyricmelody.decoder import _Hypothesis, _group_vocab
from lyricmelody.rewards import _Plan, _State
from lyricmelody.scorer import rhythm_projection
from lyricmelody.synthetic import random_aligned_melody, random_lyrics, random_training_melody
from reference import TWINS


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__match_args__)


def named(text: str) -> str:
    """``text`` with each twin's name read as its record's, and no object address."""
    return re.sub(r" at 0x[0-9a-f]+", "", re.sub(r"(\w+)Twin\b", r"\1", text))


def shown(x) -> str:
    return named(repr(x))


def failure(call, *args, **kwargs) -> str:
    """The built-in type and message of the exception ``call`` raises, the
    message without the name of the function that raised it."""
    with pytest.raises(Exception) as raised:
        call(*args, **kwargs)
    kind = next(c for c in type(raised.value).__mro__ if c.__module__ == "builtins")
    message = re.sub(r"^[\w.]+[(][)] ", "", named(str(raised.value)))
    return f"{kind.__name__}: {message}"


@pytest.fixture(scope="module")
def samples() -> dict:
    """Two records of each type with different fields, from one seeded run."""
    rng = random.Random(20261021)
    config = default_reward_config()
    bundle = train_model_bundle([random_training_melody(rng) for _ in range(4)], order=2)
    sheet, sheet2 = random_lyrics(rng, sentences=2, repeat=True), random_lyrics(rng, 1, tonal=False)
    melody = random_aligned_melody(sheet, rng)
    melody2 = Melody(random_aligned_melody(sheet2, rng).tokens, (3, 4))
    options = DecodeOptions(beam_width=2)
    options2 = DecodeOptions(DecodeMode.TWO_STAGE, 2, 3, 1, 2, 3, 5, (3, 4), {Aspect.TONE})
    models = (bundle.token_model, bundle.rhythm_model, bundle.pitch_model)
    state2 = _State(4, 1, True, (60, 62), 2, (None, 2), 60)
    pairs = [
        (options, options2),
        (_group_vocab(models[0].vocab), _group_vocab(models[1].vocab)),
        (_Hypothesis((), (), _State()), _Hypothesis(melody.tokens[:2], (3, 5), state2, -1.5, 0.75)),
        (decode(sheet2, models[0], config, options), decode(sheet2, *models[:1], config, options2,
                                                            *models[1:])),
        (sheet.syllables[0], sheet2.syllables[-1]),
        (sheet.sentences[-1], sheet2.sentences[0]),
        (sheet, sheet2),
        (build_structure_matrix(sheet), build_structure_matrix(sheet2)),
        (melody.tokens[0], rest(1)),
        (rhythm_projection(melody.tokens[0]), rhythm_projection(rest(1))),
        (melody, melody2),
        (evaluate_pair(sheet, melody, config), evaluate_pair(sheet2, melody2, config)),
        (config.harmony_table, HarmonyTable({})),
        (config, config.with_preset("off")),
        (_State(), state2),
        (_Plan((1.0, False), (0.5, True)),
         _Plan((0.0, True), (0.0, True), (1, 2), 60, 0, 62, ((1.5, False),), True)),
        (score_rewards(sheet, melody, config), score_rewards(sheet2, melody2, config, frozenset())),
        (models[0].vocab, models[1].vocab),
        (UniformScorer(models[0].vocab), UniformScorer(models[1].vocab)),
        (bundle, ModelBundle(*models[::-1])),
    ]
    return {type(a): (a, b) for a, b in pairs}


def test_every_record_type_has_two_different_samples(samples):
    assert len(TWINS) == 20 and set(samples) == set(TWINS)
    assert all(values(a) != values(b) for a, b in samples.values())


RECORDS = pytest.mark.parametrize("cls", TWINS, ids=lambda cls: cls.__name__)


def twin_of(twins: dict, record):
    """``record``'s twin, built from its fields once per record object."""
    key = id(record)
    if key not in twins:
        twins[key] = (record, TWINS[type(record)](*values(record)))
    return twins[key][1]


@RECORDS
def test_repr_eq_and_hash_match_the_twins(samples, cls):
    a, b = samples[cls]
    twins: dict = {}
    twin = TWINS[cls]
    assert cls.__match_args__ == twin.__match_args__
    assert ("__slots__" in vars(cls)) == ("__slots__" in vars(twin))
    assert vars(cls).get("__slots__") == vars(twin).get("__slots__")
    assert hasattr(a, "__dict__") == hasattr(twin_of(twins, a), "__dict__")
    rebuilt = cls(*values(a))
    for record in (a, b, rebuilt):
        assert shown(record) == shown(twin_of(twins, record))
    for x, y in [(a, a), (a, b), (b, a), (a, rebuilt), (rebuilt, a)]:
        tx, ty = twin_of(twins, x), twin_of(twins, y)
        assert ((x == y), (x != y)) == ((tx == ty), (tx != ty)), (x, y)
    ta = twin_of(twins, a)
    assert a != ta and ta != a and not a == ta

    def hashed(x):
        """``x``'s hash: its fields', its identity's, or the error."""
        try:
            h = hash(x)
        except TypeError as exc:
            return named(str(exc))
        return "identity" if h == object.__hash__(x) else h

    for record in (a, b, rebuilt):
        assert hashed(record) == hashed(twin_of(twins, record))


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          **{f"pickle {p}": lambda x, p=p: pickle.loads(pickle.dumps(x, p))
             for p in range(pickle.HIGHEST_PROTOCOL + 1)}}


@RECORDS
@pytest.mark.parametrize("way", COPIES)
def test_copies_and_pickles_match_the_twins(samples, cls, way):
    twins: dict = {}
    for record in samples[cls]:
        twin = twin_of(twins, record)
        got = COPIES[way](record)
        try:
            twin_got = COPIES[way](twin)
        except (TypeError, AttributeError):  # a slots dataclass does not pickle under
            twin_got = twin  # every protocol: a dataclass copy has the original's fields
        assert type(got) is cls and type(twin_got) is TWINS[cls]
        derived = [(getattr(got, name), getattr(twin_got, name)) for name in cls._derived]
        if derived:  # derived again from the copied fields, where a dataclass copied them,
            # so a set field's new iteration order may reorder a derived mapping
            assert all(mine == theirs for mine, theirs in derived)
            got_shown, twin_shown = shown(values(got)), shown(values(twin_got))
        else:
            got_shown, twin_shown = shown(got), shown(twin_got)
        assert got_shown == twin_shown
        if TWINS[cls].__dataclass_params__.eq:
            assert (got == record) == (twin_got == twin)
        else:  # interned: the one instance of its value
            assert got is record


@RECORDS
def test_frozen_types_refuse_as_the_twins_do(samples, cls):
    a, _ = samples[cls]
    twin = twin_of({}, a)
    name = cls.__match_args__[0]
    if not TWINS[cls].__dataclass_params__.frozen:
        other = samples[cls][1]
        a, twin = copy.copy(a), copy.copy(twin)
        setattr(a, name, getattr(other, name))
        setattr(twin, name, getattr(other, name))
        assert shown(a) == shown(twin)
        return
    for name in cls.__match_args__:
        assert failure(setattr, a, name, None) == failure(setattr, twin, name, None)
        assert failure(delattr, a, name) == failure(delattr, twin, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(twin, name, None)
    # a slots dataclass's own __setattr__ raised TypeError for a name that is
    # no field (its closure held the class it replaced); a record refuses alike
    refused = "AttributeError: cannot {} field 'not_a_field'"
    assert failure(setattr, a, "not_a_field", 1) == refused.format("assign to")
    assert failure(delattr, a, "not_a_field") == refused.format("delete")
    assert shown(a) == shown(twin)


@RECORDS
def test_construction_matches_the_twins(samples, cls):
    a, _ = samples[cls]
    twin = TWINS[cls]
    fields = dict(zip(cls.__match_args__, values(a)))
    for built, twin_built in [(cls(*values(a)), twin(*values(a))),
                              (cls(**fields), twin(**fields))]:
        assert shown(built) == shown(a) == shown(twin_built)
    required = [f for f in dataclasses.fields(twin) if f.init and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    if required:
        short = values(a)[:len(required) - 1]
        assert failure(cls) == failure(twin)
        assert failure(cls, *short) == failure(twin, *short)
    else:
        assert shown(cls()) == shown(twin())
    assert failure(cls, *values(a), unknown=1) == failure(twin, *values(a), unknown=1)
    assert failure(cls, *values(a), *values(a)) == failure(twin, *values(a), *values(a))


def replacements(samples, cls):
    """``(record, changes)``: none, each field with its own value, each with
    the other sample's where the record takes it, and all of the other's."""
    a, b = samples[cls]
    yield a, {}
    for name in cls.__match_args__:
        yield a, {name: getattr(a, name)}
        try:
            a.__replace__(**{name: getattr(b, name)})
        except (InputError, ValueError):  # a record checks its fields, where its twin takes any
            continue
        yield a, {name: getattr(b, name)}
    yield a, dict(zip(cls.__match_args__, values(b)))


@RECORDS
def test_replace_matches_dataclasses_replace(samples, cls):
    twins: dict = {}
    for record, changes in replacements(samples, cls):
        got = record.__replace__(**changes)
        assert type(got) is cls
        assert shown(got) == shown(dataclasses.replace(twin_of(twins, record), **changes))
        if not TWINS[cls].__dataclass_params__.eq:  # interned
            assert got is cls(**dict(zip(cls.__match_args__, values(record)), **changes))


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
@RECORDS
def test_copy_replace_is_the_records_replace(samples, cls):
    for record, changes in replacements(samples, cls):
        assert repr(copy.replace(record, **changes)) == repr(record.__replace__(**changes))
