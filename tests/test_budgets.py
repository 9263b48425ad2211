"""Work budgets: exact counts of the work a call does.

Timing is noisy and runs only in the benchmark; a count is exact, so each
memo or shared pass a speed-up rests on gets a budget here.  A budget may
only be raised by a change that says why.
"""

import argparse
import enum
import fractions
import gc
import json
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from lyricmelody import (
    DecodeMode,
    DecodeOptions,
    decode,
    evaluate_pair,
    score_rewards,
    train_model_bundle,
    train_ngram,
)
from lyricmelody import build_melody_vocabulary, decoder, lyrics, metrics, parse_lyrics, rewards
from lyricmelody import midi, read_midi, serialize_lyrics, write_midi
from lyricmelody import melody as melody_module
from lyricmelody.decoder import score_two_stage
from lyricmelody.melody import Melody, MelodyToken, RhythmToken
from lyricmelody.scorer import END, NGramModel, UniformScorer, Vocabulary
from lyricmelody.synthetic import random_aligned_melody, random_lyrics, random_training_melody


def count_calls(monkeypatch, owner, name, calls):
    """Count each call of ``owner.name`` in ``calls[name]``."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.fixture(scope="module")
def bundle():
    rng = random.Random(20261101)
    return train_model_bundle([random_training_melody(rng) for _ in range(6)], order=3)


def sheets(seed, n):
    rng = random.Random(seed)
    return [random_lyrics(rng, sentences=rng.randint(1, 3), tonal=k % 2 == 0, repeat=k % 4 < 2)
            for k in range(n)]


def test_evaluate_then_score_builds_one_model_and_folds_once(monkeypatch, config):
    # score_rewards reads the events evaluate_pair folded for the same objects
    calls = Counter()
    count_calls(monkeypatch, rewards._EventModel, "__init__", calls)
    count_calls(monkeypatch, rewards._EventModel, "fold", calls)
    rng = random.Random(20261102)
    for k, lyrics in enumerate(sheets(20261102, 12)):
        melody = random_aligned_melody(lyrics, rng)
        calls.clear()
        evaluate_pair(lyrics, melody, config)
        score_rewards(lyrics, melody, config)
        assert calls == {"__init__": 1, "fold": 1}, k


@pytest.mark.parametrize("mode", [DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD])
def test_beam_plans_each_expansion_at_most_once(monkeypatch, config, bundle, mode):
    calls = Counter()
    count_calls(monkeypatch, rewards._EventModel, "plan", calls)
    plans = []  # per expansion, the plans it built
    expand = decoder._expand

    def counted_expand(*args):
        before = calls["plan"]
        out = expand(*args)
        plans.append(calls["plan"] - before)
        return out

    monkeypatch.setattr(decoder, "_expand", counted_expand)
    for lyrics in sheets(20261103, 4):
        decode(lyrics, bundle.token_model, config, DecodeOptions(mode=mode))
    assert plans and max(plans) == 1


def test_each_probability_table_is_built_once_per_context(monkeypatch, config, bundle):
    # the tables of proper suffixes are memoised, full contexts' distributions
    # are cached, so no (model, context) table is computed twice
    builds = Counter()
    table = NGramModel._table

    def counted_table(self, ctx):
        if ctx not in self._tables:
            builds[id(self), ctx] += 1
        return table(self, ctx)

    monkeypatch.setattr(NGramModel, "_table", counted_table)
    for lyrics in sheets(20261104, 3):
        for mode in (DecodeMode.BEAM_SOFT, DecodeMode.TWO_STAGE):
            decode(lyrics, bundle.token_model, config, DecodeOptions(mode=mode),
                   bundle.rhythm_model, bundle.pitch_model)
    assert builds and max(builds.values()) == 1
    assert {model for model, _ in builds} == {
        id(bundle.token_model), id(bundle.rhythm_model), id(bundle.pitch_model)}


def test_score_two_stage_folds_once_for_both_stages(monkeypatch, config, bundle):
    # the pitch stage's score_rewards reads the rhythm stage's fold
    calls = Counter()
    count_calls(monkeypatch, rewards._EventModel, "__init__", calls)
    count_calls(monkeypatch, rewards._EventModel, "fold", calls)
    rng = random.Random(20261105)
    for k, lyrics in enumerate(sheets(20261105, 8)):
        melody = random_aligned_melody(lyrics, rng)
        calls.clear()
        score_two_stage(lyrics, melody, bundle.rhythm_model, bundle.pitch_model, config)
        assert calls == {"__init__": 1, "fold": 1}, k


@pytest.mark.parametrize("mode", [DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD])
def test_beam_groups_the_vocabulary_once_and_asks_once_per_expansion(
    monkeypatch, config, bundle, mode
):
    calls = Counter()
    count_calls(monkeypatch, decoder, "_group_vocab", calls)
    count_calls(monkeypatch, decoder, "_expand", calls)
    count_calls(monkeypatch, NGramModel, "log_prob_dist", calls)
    for k, lyrics in enumerate(sheets(20261106, 4)):
        calls.clear()
        decode(lyrics, bundle.token_model, config, DecodeOptions(mode=mode))
        assert calls["_group_vocab"] == 1, k
        assert 0 < calls["log_prob_dist"] <= calls["_expand"], k


@pytest.mark.parametrize("mode", [DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD])
def test_beam_reads_each_tables_class_maxima_once_per_model(monkeypatch, config, bundle, mode):
    # each table's best log-probability per class is memoised for as long as
    # the table lives, so a second decode with the same model computes none
    calls = Counter()

    def counted_max(*args, **kwargs):
        calls["max"] += 1
        return max(*args, **kwargs)

    monkeypatch.setattr(decoder, "max", counted_max, raising=False)  # shadows the builtin
    for k, lyrics in enumerate(sheets(20261114, 4)):
        decode(lyrics, bundle.token_model, config, DecodeOptions(mode=mode))
        calls.clear()
        decode(lyrics, bundle.token_model, config, DecodeOptions(mode=mode))
        assert calls["max"] == 0, k


def owned_model(seed):
    """A model over a vocabulary no other test decodes with."""
    rng = random.Random(seed)
    durations = [fractions.Fraction(1), fractions.Fraction(2)]
    vocab = build_melody_vocabulary((50, 55), durations)
    corpus = [random_training_melody(rng, pitch_range=(50, 55), durations=durations)
              for _ in range(4)]
    return train_ngram(corpus, order=3, vocab=vocab)


def test_nothing_the_decoder_keeps_holds_a_model(config):
    # what the decoder derives from a table lives on the table, so a model
    # and its tables die once their owner lets go of them
    model = owned_model(20261115)
    for lyrics in sheets(20261115, 2):
        for mode in (DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD, DecodeMode.RERANK):
            decode(lyrics, model, config, DecodeOptions(mode=mode))
    assert any(hasattr(table, "derived") for table in model._dist_cache.values())
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_plain_dict_tables_gain_nothing(config):
    from test_decoder import FreshDicts

    model = owned_model(20261116)
    for lyrics in sheets(20261116, 2):
        for scorer in (FreshDicts(model), UniformScorer(model.vocab)):
            for mode in (DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD, DecodeMode.SAMPLE):
                decode(lyrics, scorer, config, DecodeOptions(mode=mode))
    # the fresh dicts' sources, the model's own tables, were never looked up
    assert model._dist_cache
    assert not any(hasattr(table, "derived") for table in model._dist_cache.values())


def check_rankings(model) -> list:
    """The ``derived`` entries on ``model``'s tables: each names the groups
    kept on the model's vocabulary (no other's, equal or not) and holds its
    own table's maxima, and each ranking a walk filled is a fresh sort of
    that table's continuation moves, or of its start moves, by descending
    log-probability, vocabulary order on ties."""
    groups = decoder._group_vocab(model.vocab)
    (_, continuations, _), = groups.continuations
    starts = groups.any_start[1]
    assert starts == tuple(sorted(move for _, moves, _ in groups.starts for move in moves))
    entries = [(table, table.derived) for table in model._dist_cache.values()
               if hasattr(table, "derived")]
    for table, (owner, maxima, *rankings) in entries:
        assert owner is groups and maxima == groups._maxima_of(table)
        assert maxima[-1] == max(table[k] for _, _, k in starts)  # the best start's
        for ranked, moves in zip(rankings, (continuations, starts), strict=True):
            if ranked is not None:
                assert ranked == sorted(moves, key=lambda m: (-table[m[2]], m[0]))
    return [entry for _, entry in entries]


def test_one_table_looked_up_under_two_vocabularies_answers_each_with_its_own():
    # a table keeps one vocabulary's entry at a time: a lookup under the
    # other's groups computes its own maxima and never hands out the other's
    # rankings; the smaller vocabulary is a strict subset of the larger
    model = owned_model(20261117)
    table = model.log_prob_dist(())
    small = Vocabulary.build("melody", [t for t in model.vocab.tokens[:-1]
                                        if t.duration == 1 and t.pitch != 55])
    both = [decoder._group_vocab(vocab) for vocab in (model.vocab, small)]
    assert len(both[1]._maxima_of(table)) < len(both[0]._maxima_of(table))
    for groups in both * 2:
        maxima, ((_, ranked, _),), (_, starts, _) = groups.lookup(table)
        assert table.derived[0] is groups and table.derived[2:] == [None, None]
        assert maxima == groups._maxima_of(table)
        for slot, moves in ((2, ranked), (3, starts)):
            decoder._entries(0, 0.0, 0.0, False, moves, 0.0, table)  # a walk ranks the entry
            assert table.derived[slot] == sorted(moves, key=lambda m: (-table[m[2]], m[0]))


def test_threads_sharing_a_model_decode_as_a_serial_run(config):
    # decodes may run concurrently; threads race to store a cold table's
    # maxima, and every entry must still hold its own table's
    jobs = [(lyrics, DecodeOptions(mode=mode)) for lyrics in sheets(20261118, 4)
            for mode in (DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD)]

    def run(model, job):
        return repr(decode(job[0], model, config, job[1]))

    model = owned_model(20261118)
    serial = [run(model, job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the lookups' reads and writes
    try:
        for _ in range(4):
            model = owned_model(20261118)  # a fresh model, so the threads meet on cold tables
            with ThreadPoolExecutor(4) as pool:
                assert list(pool.map(run, [model] * len(jobs) * 2, jobs * 2,
                                     timeout=120)) == serial * 2
    finally:
        sys.setswitchinterval(interval)
    entries = check_rankings(model)
    for slot in (2, 3):  # the decodes walked some continuations, and some starts as one
        assert any(entry[slot] for entry in entries), slot


class Walk(list):
    """A ranking that counts the moves walks read off it."""

    reads = 0

    def __iter__(self):
        for move in list.__iter__(self):
            Walk.reads += 1
            yield move


@pytest.fixture
def counted_walks(monkeypatch):
    """What the decodes did with the ranked lists (continuations, or every
    start as one class) of each table, as (table id, ``derived`` slot); the
    test's model keeps its tables alive: the lists ``_best`` bounded and
    walked, the rankings per slot (sorts of a watched model's lists), and
    the moves the walks read and built.  ``seen["watch"](model)`` watches a
    model."""
    entries, best = decoder._entries, decoder._best
    seen = {"bounded": set(), "walked": set(), "rankings": Counter(), "reads": 0, "built": 0,
            "moves": 0}
    watched = {}  # the watched lists' slots, by id

    def counted_sorted(iterable, **kwargs):
        out = sorted(iterable, **kwargs)
        if id(iterable) not in watched:
            return out
        seen["rankings"][watched[id(iterable)]] += 1
        return Walk(out)

    def counted_entries(*args):
        moves, dist = args[4], args[6]
        if type(moves) is tuple:
            return entries(*args)
        Walk.reads = 0
        out = entries(*args)
        assert Walk.reads <= len(out) + 1  # the first move past the stop, at most
        seen["walked"].add((id(dist), moves.slot))
        seen["reads"] += Walk.reads
        seen["built"] += len(out)
        seen["moves"] += len(moves)
        return out

    def counted_best(classes, n):
        seen["bounded"].update((id(cls[6]), cls[4].slot) for cls in classes
                               if type(cls[4]) is not tuple)
        return best(classes, n)

    def watch(model):
        groups = decoder._group_vocab(model.vocab)
        for _, moves, _ in (*groups.ranked, groups.ranked_start):
            watched[id(moves)] = moves.slot

    monkeypatch.setattr(decoder, "sorted", counted_sorted, raising=False)  # shadows the builtin
    monkeypatch.setattr(decoder, "_entries", counted_entries)
    monkeypatch.setattr(decoder, "_best", counted_best)
    seen["watch"] = watch
    return seen


def test_a_walk_reads_at_most_one_move_more_than_it_builds(config, counted_walks):
    model = owned_model(20261120)
    counted_walks["watch"](model)
    for lyrics in sheets(20261120, 3):
        for mode in (DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD, DecodeMode.SAMPLE,
                     DecodeMode.RERANK):
            decode(lyrics, model, config, DecodeOptions(mode=mode, top_k=3))
    assert counted_walks["walked"] and counted_walks["built"] <= counted_walks["reads"]
    assert counted_walks["reads"] * 2 < counted_walks["moves"]  # the walks stopped early


def test_each_live_table_is_ranked_at_most_once_and_only_when_walked(config, counted_walks):
    # each ranked list of a table (its continuation class, its starts as one
    # class) is ranked on its first walk; one that is only bounded (bound
    # past the bar) stays unranked, so eager ranking of every looked-up
    # table fails here
    model = owned_model(20261121)
    counted_walks["watch"](model)
    for lyrics in sheets(20261121, 3):
        for mode in (DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD, DecodeMode.SAMPLE,
                     DecodeMode.RERANK):
            decode(lyrics, model, config, DecodeOptions(mode=mode, top_k=3))
            decode(lyrics, model, config, DecodeOptions(mode=mode, top_k=3))  # tables warm
    filled = {(id(table), slot) for table in model._dist_cache.values()
              if hasattr(table, "derived") for slot in (2, 3) if table.derived[slot] is not None}
    assert filled == counted_walks["walked"]
    assert sum(counted_walks["rankings"].values()) == len(filled)
    assert {slot for _, slot in filled} == {2, 3}  # both lists were walked somewhere
    for slot in (2, 3):  # and some of each were bounded, never walked
        assert {(t, s) for t, s in counted_walks["bounded"] - filled if s == slot}
    single = owned_model(20261122)  # no continuation is legal, so none is walked or ranked
    counted_walks["watch"](single)
    counted_walks["rankings"].clear()
    for lyrics in sheets(20261122, 2):
        decode(lyrics, single, config, DecodeOptions(max_notes_per_syllable=1))
    assert check_rankings(single) and counted_walks["rankings"][2] == 0


def test_rerank_builds_one_context_and_weighs_each_candidate_once(monkeypatch, config, bundle):
    calls = Counter()
    count_calls(monkeypatch, decoder._Context, "__init__", calls)
    count_calls(monkeypatch, decoder, "score_rewards", calls)
    for k, lyrics in enumerate(sheets(20261107, 4)):
        calls.clear()
        options = DecodeOptions(mode=DecodeMode.RERANK, rerank_candidates=3 + k, seed=k)
        decode(lyrics, bundle.token_model, config, options)
        assert calls == {"__init__": 1, "score_rewards": 3 + k}, k


@pytest.mark.parametrize("mode", [DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD])
def test_beam_completes_each_start_signature_at_most_once_per_expansion(
    monkeypatch, config, bundle, mode
):
    # starts that differ only in duration share one signature, so one
    # complete serves them all
    from reference import legal_moves

    calls = Counter()
    count_calls(monkeypatch, rewards._EventModel, "complete", calls)
    vocab = bundle.token_model.vocab
    over, shared = [], 0
    expand = decoder._expand

    def counted_expand(ctx, h, *args):
        nonlocal shared
        before = calls["complete"]
        out = expand(ctx, h, *args)
        state = (h.state.syl, h.state.span_open, len(h.state.span_pitches))
        starts = [t for _, t in legal_moves(vocab, state, ctx.n, ctx.options.max_notes_per_syllable)
                  if t != END and t.is_note and t.syllable_start]
        signatures = {ctx.signature(t) for t in starts}
        shared += len(starts) - len(signatures)
        if calls["complete"] - before > len(signatures):
            over.append((calls["complete"] - before, len(signatures)))
        return out

    monkeypatch.setattr(decoder, "_expand", counted_expand)
    for lyrics in sheets(20261108, 3):
        decode(lyrics, bundle.token_model, config, DecodeOptions(mode=mode))
    assert calls["complete"] and shared  # some starts shared a signature
    assert over == []


@pytest.mark.parametrize("mode", [DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD])
def test_a_pitch_independent_plans_starts_cost_one_completion(monkeypatch, config, bundle, mode):
    # a plan with no harmony cell and no structure partner pays every start
    # pitch alike, so its starts are completed once, as one class: in its
    # expansion, or in beam-hard, when the plan is masked, only on a step
    # that relaxes.  A completion per start class fails here
    plan, complete = rewards._EventModel.plan, rewards._EventModel.complete
    plans, completions = [], Counter()

    def counted_plan(self, st, start=0.0):
        out = plan(self, st, start)
        if st.syl + 1 < self.n:  # starts are legal; the list keeps the plan, so its id
            plans.append(out)
        return out

    def counted_complete(self, p, pitch):
        completions[id(p)] += 1
        return complete(self, p, pitch)

    monkeypatch.setattr(rewards._EventModel, "plan", counted_plan)
    monkeypatch.setattr(rewards._EventModel, "complete", counted_complete)
    rng = random.Random(20261124)
    for k in range(6):  # stress-accent sheets, whose plans have no harmony cell, and a tonal one
        lyrics = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=k == 5, repeat=k % 2 == 0)
        decode(lyrics, bundle.token_model, config, DecodeOptions(mode=mode))
    alike = {id(p) for p in plans if p.cell is None and p.partner_delta is None}
    assert len(alike) * 2 > len(plans)  # most plans pay every pitch alike here
    assert max(completions[i] for i in alike) == 1
    if mode is DecodeMode.BEAM_SOFT:  # each completed once, in its expansion
        assert all(completions[i] == 1 for i in alike)
    # a plan with a partner or a cell still completes its starts per pitch
    assert max(completions[id(p)] for p in plans if id(p) not in alike) > 1


def test_a_vocabulary_keeps_one_clock_per_meter_and_builds_each_once(monkeypatch, config):
    # the grammar stage's clock depends only on the vocabulary and the
    # meter, so it is built on the first decode in a meter and kept on the
    # vocabulary; a pickle of the vocabulary leaves it out
    import pickle

    calls = Counter()
    count_calls(monkeypatch, decoder, "_clock", calls)
    model = owned_model(20261123)
    for lyrics in sheets(20261123, 2):
        for meter in [(4, 4), (3, 4)] * 2:
            for mode in (DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD, DecodeMode.SAMPLE,
                         DecodeMode.RERANK):
                decode(lyrics, model, config, DecodeOptions(mode=mode, time_signature=meter))
    assert calls["_clock"] == 2
    clocks = vars(model.vocab)["_clocks"]
    assert clocks.keys() == {(4, 4), (3, 4)}
    for meter, clock in clocks.items():
        assert clock == rewards._clock(meter, model.vocab.tokens[:-1])
    assert clocks[4, 4][2] != clocks[3, 4][2]  # the bars differ
    assert "_clocks" not in vars(pickle.loads(pickle.dumps(model.vocab)))


def test_beam_hard_builds_masked_moves_only_on_steps_that_relax(monkeypatch, config, bundle):
    # an expansion sets its masked classes aside; the step builds them only
    # when no unmasked move is left, which is the step it records as relaxed
    returned, built = [], Counter()
    expand, entries = decoder._expand, decoder._entries

    def counted_expand(*args):
        out = expand(*args)
        returned.extend(cls for cls in out if cls[3] and cls[4][0][0] >= 0)  # END aside
        return out

    def counted_entries(*args):
        out = entries(*args)
        built[k] += sum(1 for entry in out if entry[6] and entry[2] >= 0)
        return out

    monkeypatch.setattr(decoder, "_expand", counted_expand)
    monkeypatch.setattr(decoder, "_entries", counted_entries)
    relaxed = {}
    for k, lyrics in enumerate(sheets(20261109, 4)):
        relaxed[k] = decode(lyrics, bundle.token_model, config,
                            DecodeOptions(mode=DecodeMode.BEAM_HARD)).relaxation_steps
    assert any(relaxed.values()) and sum(built.values())  # deferred moves were built somewhere
    assert returned == []
    assert {k for k in built if built[k]} <= {k for k in relaxed if relaxed[k]}


def test_beam_hard_completes_only_candidate_starts_on_steps_that_do_not_relax(
    monkeypatch, config, bundle
):
    # a hard expansion completes a start only at a pitch its plan's candidate
    # rule names; the other starts can only come back masked, so they are
    # completed only on a step that relaxes.  Eager completion of every
    # start class in each expansion fails both asserts
    named, off_rule = {}, []  # per plan, its candidates; steps that completed off them
    candidates, complete = rewards._EventModel.candidates, rewards._EventModel.complete
    expand, best = decoder._expand, decoder._best
    starts = len(decoder._group_vocab(bundle.token_model.vocab).starts)
    calls = Counter()

    def counted_candidates(self, st, plan):
        pitches = candidates(self, st, plan)
        named[id(plan)] = plan, pitches  # holds the plan, so its id stays its own
        return pitches

    def counted_complete(self, plan, pitch):
        calls["complete"] += 1
        pitches = named.get(id(plan), (None, None))[1]
        if pitches is not None and pitch not in pitches:
            off_rule.append(calls["steps"])
        return complete(self, plan, pitch)

    def counted_expand(ctx, h, *args):
        if ctx.active and h.state.syl + 1 < ctx.n:  # an eager expansion completes every start
            calls["eager"] += starts
        return expand(ctx, h, *args)

    def counted_best(classes, n):  # once per step, after the step's completions
        calls["steps"] += 1
        return best(classes, n)

    monkeypatch.setattr(rewards._EventModel, "candidates", counted_candidates)
    monkeypatch.setattr(rewards._EventModel, "complete", counted_complete)
    monkeypatch.setattr(decoder, "_expand", counted_expand)
    monkeypatch.setattr(decoder, "_best", counted_best)
    relaxing = 0
    for k, lyrics in enumerate(sheets(20261119, 8)):
        for meter in ((4, 4), (3, 4), (6, 8)):
            calls["steps"] = 0
            named.clear()
            off_rule.clear()
            options = DecodeOptions(mode=DecodeMode.BEAM_HARD, time_signature=meter)
            relaxed = decode(lyrics, bundle.token_model, config, options).relaxation_steps
            relaxing += bool(relaxed)
            assert set(off_rule) <= set(relaxed), (k, meter)
    assert relaxing  # some decodes completed deferred starts
    assert calls["complete"] * 3 <= calls["eager"], (calls["complete"], calls["eager"])


@pytest.mark.parametrize("mode", [DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD])
def test_beam_builds_only_the_moves_at_or_under_the_bar(monkeypatch, config, bundle, mode):
    # a class's bound is its best move's -score; a step's bar is the width-th
    # smallest bound, and only moves at or under it are built.  A ranked
    # class (a live table's continuations) also stops after its own n-th
    # best -score, ties included: it builds exactly its moves at or under
    # both; any other class builds exactly its moves at or under the bar
    entries, best = decoder._entries, decoder._best
    calls = Counter()
    built = []  # per class the current selection walked, what it built

    def counted_entries(*args):
        out = entries(*args)
        built.append(out)
        return out

    def counted_best(classes, n):
        every = [sorted(entries(*cls)) for cls in classes]  # no bar, no n: every move
        bounds = sorted(moves[0][0] for moves in every)
        bar = bounds[n - 1] if len(bounds) >= n else float("inf")
        built.clear()
        out = best(classes, n)
        walked = [(cls, moves) for cls, moves in zip(classes, every) if moves[0][0] <= bar]
        assert len(built) == len(walked)
        for (cls, moves), got in zip(walked, built):
            cap = min(bar, moves[n - 1][0] if len(moves) >= n else bar)
            want = cap if isinstance(cls[4], decoder._Ranked) else bar
            assert sorted(got) == [entry for entry in moves if entry[0] <= want]
            calls["ranked"] += isinstance(cls[4], decoder._Ranked)
        calls["steps"] += 1
        calls["moves"] += sum(map(len, every))
        calls["built"] += sum(map(len, built))
        calls["past the bar"] += sum(1 for got in built for entry in got if entry[0] > bar)
        calls["at or under the bar"] += sum(1 for moves in every for entry in moves
                                            if entry[0] <= bar)
        return out

    monkeypatch.setattr(decoder, "_entries", counted_entries)
    monkeypatch.setattr(decoder, "_best", counted_best)
    for lyrics in sheets(20261112, 4):
        decode(lyrics, bundle.token_model, config, DecodeOptions(mode=mode))
    assert calls["past the bar"] == 0
    # ranked classes stop at their own n-th best, short of every move at or under the bar
    assert calls["ranked"] and calls["built"] < calls["at or under the bar"]
    assert calls["steps"] and calls["built"] * 4 < calls["moves"]  # the bar pruned most moves


@pytest.mark.parametrize("mode", [DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD])
def test_beam_hashes_and_compares_tokens_in_c(config, bundle, mode):
    # tokens are interned, so a token's hash and == are identity's, with no
    # Python frame; a Python-level __hash__ or __eq__ runs per dict lookup
    token_code = {f.__code__ for cls in (MelodyToken, RhythmToken)
                  for f in (cls.__hash__, cls.__eq__) if hasattr(f, "__code__")}
    plan_code = rewards._EventModel.plan.__code__
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code in token_code:
                calls[frame.f_code.co_name] += 1
            elif frame.f_code is plan_code:
                calls["plan"] += 1

    lyrics = sheets(20261110, 2)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for sheet in lyrics:
            decode(sheet, bundle.token_model, config, DecodeOptions(mode=mode))
    finally:
        sys.setprofile(previous)
    assert calls.pop("plan") > 0  # the profile saw the decode
    assert calls == {}


@pytest.mark.parametrize("mode", [DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD])
def test_beam_counts_ticks_and_reads_rows(config, bundle, mode):
    # the decode state holds integer ticks and is built directly, a start
    # reads its pitch's terms off the event table's rows, and a plan weighs
    # its own events: inside the beam no Python-level Fraction method runs,
    # no record's __replace__, no harmony interval scan, no weighted_total and
    # no is_maximal
    watched = {rewards._cell_degree.__code__: "_cell_degree",
               decoder._Record.__replace__.__code__: "_Record.__replace__",
               rewards.weighted_total.__code__: "weighted_total",
               rewards.RewardEvent.is_maximal.fget.__code__: "RewardEvent.is_maximal"}
    fraction_file = fractions.Fraction.__new__.__code__.co_filename
    beam_code = decoder._beam.__code__
    calls = Counter()
    inside = False

    def profile(frame, event, arg):
        nonlocal inside
        code = frame.f_code
        if code is beam_code and event in ("call", "return"):  # not its C calls' events
            inside = event == "call"
            calls["_beam"] += inside
        elif inside and event == "call":
            if code.co_filename == fraction_file:
                calls[f"Fraction {code.co_name}"] += 1
            elif code in watched:
                calls[watched[code]] += 1

    lyrics = sheets(20261111, 3)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for sheet in lyrics:
            decode(sheet, bundle.token_model, config, DecodeOptions(mode=mode))
    finally:
        sys.setprofile(previous)
    assert calls.pop("_beam") == len(lyrics)  # the profile saw every beam
    assert calls == {}


def test_structure_similarity_counts_durations_in_c():
    # DD counts each duration as its (numerator, denominator) pair, so its
    # sets hash and list.count compares in C, with no Python-level Fraction
    # __eq__ or __hash__ per comparison
    fraction_file = fractions.Fraction.__new__.__code__.co_filename
    similarity_code = metrics.structure_similarity.__code__
    histogram_code = metrics.histogram_similarity.__code__
    calls = Counter()
    inside = False

    def profile(frame, event, arg):
        nonlocal inside
        code = frame.f_code
        if code is similarity_code and event in ("call", "return"):
            inside = event == "call"
        elif inside and event == "call":
            if code is histogram_code:
                calls["histogram_similarity"] += 1
            elif code.co_filename == fraction_file and code.co_name in ("__eq__", "__hash__"):
                calls[f"Fraction {code.co_name}"] += 1

    rng = random.Random(20261113)
    pairs = [(lyrics, random_aligned_melody(lyrics, rng)) for lyrics in sheets(20261113, 24)]
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        figures = [metrics.structure_similarity(lyrics, melody) for lyrics, melody in pairs]
    finally:
        sys.setprofile(previous)
    assert any(dd is not None for _, dd, _ in figures)  # some sheets repeat a sentence
    assert calls.pop("histogram_similarity") > 0  # the profile saw the histograms
    assert calls == {}


def test_evaluate_then_score_scans_repeats_once_with_no_python_fraction_or_enum_method(config):
    # the fold's event model keeps the pair's one repeat scan, which
    # evaluate_pair's structure figures read (no structure matrix); durations
    # are read as interned integer ratios, the long-note threshold once per
    # config and the strong offsets once per meter; Aspect and HarmonyDegree
    # hash in C, and score_rewards zips a tuple of the aspects
    fraction_file = fractions.Fraction.__new__.__code__.co_filename
    enum_file = enum.Enum.__new__.__code__.co_filename
    scan_code = lyrics._repeat_anchors.__code__
    matrix_code = lyrics.build_structure_matrix.__code__
    calls = Counter()
    scans = set()  # a generator's frame is called again at each resume

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call":
            return
        if code is scan_code:
            scans.add(frame)
        elif code is matrix_code:
            calls["build_structure_matrix"] += 1
        elif code.co_filename in (fraction_file, enum_file):
            calls[f"{code.co_filename.rsplit('/', 1)[-1]} {code.co_name}"] += 1

    rng = random.Random(20261114)
    meters = [(4, 4), (3, 4), (6, 8)]
    # tonal and stress-accent, repeated and not, each in every meter
    pairs = [(sheet, Melody(random_aligned_melody(sheet, rng).tokens, meters[k % 3]))
             for k, sheet in enumerate(sheets(20261114, 27))]
    for sheet, melody in pairs[24:]:  # the first pair in each meter reads its strong offsets
        evaluate_pair(sheet, melody, config)
    previous = sys.getprofile()
    for k, (sheet, melody) in enumerate(pairs[:24]):
        scans.clear()
        sys.setprofile(profile)
        try:
            evaluate_pair(sheet, melody, config)
            score_rewards(sheet, melody, config)
        finally:
            sys.setprofile(previous)
        assert len(scans) == 1 and calls == {}, (k, len(scans), calls)
    assert sum(evaluate_pair(*pair, config).md is not None for pair in pairs) >= 6


def test_write_midi_counts_ticks_with_no_python_fraction_method():
    # a token's ticks are its interned (numerator, denominator) pair times
    # the division, divided in integers, so writing a file runs no
    # Python-level Fraction method
    fraction_file = fractions.Fraction.__new__.__code__.co_filename
    write_code = write_midi.__code__
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call":
            return
        if code is write_code:
            calls["write_midi"] += 1
        elif code.co_filename == fraction_file:
            calls[f"Fraction {code.co_name}"] += 1

    rng = random.Random(20261115)
    durations = [fractions.Fraction(1, 3), fractions.Fraction(1, 2), 1, fractions.Fraction(5, 4)]
    meters = [(4, 4), (3, 4), (6, 8)]
    pairs = [(sheet, Melody(random_aligned_melody(sheet, rng, durations=durations).tokens,
                            meters[k % 3]))
             for k, sheet in enumerate(sheets(20261115, 12))]
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for sheet, melody in pairs:
            write_midi(melody, sheet)
            write_midi(melody)
    finally:
        sys.setprofile(previous)
    assert calls.pop("write_midi") == 2 * len(pairs)  # the profile saw every write
    assert calls == {}


def test_parse_lyrics_assembles_once_and_builds_each_syllable_once():
    # one pass per line hands the assembler its tuples: one _assemble per
    # sheet, and one Syllable per syllable, with no second build to check it
    watched = {lyrics._assemble.__code__: "_assemble",
               lyrics.Syllable.__init__.__code__: "Syllable"}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    texts = [serialize_lyrics(sheet) for sheet in sheets(20261118, 24)]
    previous = sys.getprofile()
    for k, text in enumerate(texts):
        calls.clear()
        sys.setprofile(profile)
        try:
            sheet = parse_lyrics(text)
        finally:
            sys.setprofile(previous)
        assert calls == {"_assemble": 1, "Syllable": len(sheet)}, k
    assert {sheet.language for sheet in map(parse_lyrics, texts)} == set(lyrics.Language)


def midi_files(seed, n):
    """``n`` seeded files in three meters, with durations of thirds and
    quarters, with lyrics and without: every token of each is interned."""
    rng = random.Random(seed)
    durations = [fractions.Fraction(1, 3), fractions.Fraction(1, 2), 1, fractions.Fraction(5, 4)]
    meters = [(4, 4), (3, 4), (6, 8)]
    return [write_midi(Melody(random_aligned_melody(sheet, rng, durations=durations).tokens,
                              meters[k % 3]), sheet if k % 2 else None)
            for k, sheet in enumerate(sheets(seed, n))]


def test_read_midi_takes_one_gcd_per_distinct_tick_count(monkeypatch):
    # each tick count's ratio over the division is reduced once per read
    real = midi.gcd
    reduced = Counter()

    def counted(ticks, division):
        reduced[ticks] += 1
        return real(ticks, division)

    monkeypatch.setattr(midi, "gcd", counted)
    repeating = 0
    for k, data in enumerate(midi_files(20261119, 24)):
        reduced.clear()
        melody = read_midi(data)
        durations = {t.duration for t in melody.tokens}
        assert set(reduced.values()) == {1} and len(reduced) == len(durations), k
        repeating += len(melody.tokens) > len(durations)
    assert repeating >= 12  # most files read some tick count twice or more


def test_read_midi_builds_no_token_and_runs_no_python_fraction_method_on_table_hits():
    # a file of tokens the process has built reads each from the token table
    # by its key: no token constructor, no Python-level Fraction method
    fraction_file = fractions.Fraction.__new__.__code__.co_filename
    watched = {read_midi.__code__: "read_midi", melody_module._token.__code__: "_token"}
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call":
            return
        if code in watched:
            calls[watched[code]] += 1
        elif code.co_filename == fraction_file:
            calls[f"Fraction {code.co_name}"] += 1

    files = midi_files(20261120, 24)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for data in files:
            read_midi(data)
    finally:
        sys.setprofile(previous)
    assert calls == {"read_midi": len(files)}


def test_random_lyrics_assembles_its_sheet_with_no_text_to_parse():
    # the drawn marks, flags and punctuation go through the parser's tables
    # to its assembler, once per sheet; no text is written or parsed
    watched = {lyrics.parse_lyrics.__code__: "parse_lyrics",
               lyrics._assemble.__code__: "_assemble"}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        drawn = sheets(20261116, 24)
    finally:
        sys.setprofile(previous)
    assert calls == {"_assemble": len(drawn)}


def test_random_training_melody_reads_is_note_once_per_note_after_the_first():
    # the walk counts its notes as it appends them: the one is_note read per
    # note drawn is whether the token before it is a note (a melisma may
    # follow one), never a rescan of the walk so far
    # (a read from the walk or a generator in its module, not from Melody's checks)
    is_note_code = MelodyToken.is_note.fget.__code__
    walk_file = random_training_melody.__code__.co_filename
    calls = Counter()

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code is is_note_code
                and frame.f_back.f_code.co_filename == walk_file):
            calls["is_note"] += 1

    rng = random.Random(20261117)
    for length in (1, 2, 17, 200):
        calls.clear()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            melody = random_training_melody(rng, length=length, rest_probability=0.5)
        finally:
            sys.setprofile(previous)
        assert calls["is_note"] == length - 1 < len(melody.tokens), length


def test_criterion_2_oracle_builds_one_event_model_per_sheet_and_preset(monkeypatch, config):
    # the exhaustive oracle rescores every complete sequence for one sheet
    # and preset; the reward_events memo reuses that pair's event model
    from reference import exhaustive_argmax
    from test_acceptance import _tiny_vocab

    calls = Counter()
    count_calls(monkeypatch, rewards._EventModel, "__init__", calls)
    scorer = UniformScorer(_tiny_vocab(False))
    for text in ("ni3|W,K hao3|I .", "ni3|W hao3|I .\nni3|W hao3|I ."):
        lyrics = parse_lyrics(text)
        for preset in ("telemelody", "songmass", "off"):
            cfg = config.with_preset(preset)
            calls.clear()
            exhaustive_argmax(lyrics, scorer, cfg, DecodeOptions().active, 2)
            assert calls == {"__init__": 1}, (text, preset)


# ---------------------------------------------------------------------------
# start-up: each command runs only the modules it calls
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: runs one command in a fresh process; its last line is the exit code, the
#: package's submodules whose code ran, and the modules of SLOW_IMPORTS it loaded
RUN_COMMAND = """
import json, sys, types
before = set(sys.modules)  # what the interpreter's start-up loaded is not the command's
import lyricmelody
from lyricmelody.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --version and --help
    code = exc.code
print(json.dumps([code, sorted(name for name in lyricmelody._EXPORTS
                              if type(vars(lyricmelody)[name]) is types.ModuleType),
                  sorted(set(sys.modules) - before)]))
"""

#: eight threads behind a barrier each touch the package first, in one of
#: three ways; the switch interval lets them run inside a module's code
FIRST_TOUCH = """
import json, sys, threading
sys.setswitchinterval(1e-6)
import lyricmelody

def package_name():
    return lyricmelody.DecodeOptions

def from_import():
    from lyricmelody.decoder import DecodeOptions
    return DecodeOptions

def module_attribute():
    return lyricmelody.metrics.evaluate_pair

touches = (package_name, from_import, module_attribute)
barrier = threading.Barrier(8)
results = [None] * 8

def run(i):
    barrier.wait()
    try:
        results[i] = touches[i % 3]().__qualname__
    except Exception as exc:
        results[i] = repr(exc)

threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(json.dumps(results))  # a thread still running left its entry None
"""


def fresh_process(code, *args, cwd=None) -> list:
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """A MIDI corpus, its model, and a lyrics file with a MIDI aligned to it."""
    root = tmp_path_factory.mktemp("startup")
    rng = random.Random(20261020)
    corpus = [random_training_melody(rng, pitch_range=(60, 67)) for _ in range(4)]
    (root / "corpus").mkdir()
    for i, melody in enumerate(corpus):
        (root / "corpus" / f"{i}.mid").write_bytes(write_midi(melody))
    (root / "model.json").write_text(train_model_bundle(corpus).to_json(), "utf-8")
    sheet = random_lyrics(rng, sentences=2)
    (root / "lyrics").mkdir()
    (root / "lyrics" / "song.txt").write_text(serialize_lyrics(sheet), "utf-8")
    (root / "song.mid").write_bytes(write_midi(random_aligned_melody(sheet, rng), sheet))
    return root


#: each command's arguments and the submodules it runs
COMMAND_MODULES = {
    "version": (["--version"], {"errors"}),
    "help": (["--help"], {"errors"}),
    "generate-help": (["generate", "--help"], {"errors"}),
    "train": (["train", "corpus", "-o", "trained.json"],
              {"errors", "lyrics", "melody", "midi", "scorer"}),
    "evaluate": (["evaluate", "lyrics/song.txt", "song.mid"],
                 {"errors", "lyrics", "melody", "midi", "rewards", "metrics"}),
    "generate": (["generate", "lyrics/song.txt", "-m", "model.json", "-o", "out.mid"],
                 {"errors", "lyrics", "melody", "midi", "rewards", "scorer", "decoder"}),
    "compare": (["compare", "lyrics", "-m", "model.json"],  # writes no MIDI
                {"errors", "lyrics", "melody", "rewards", "scorer", "decoder", "metrics"}),
}


#: standard modules no command may load: importing ``dataclasses`` takes
#: several milliseconds, most of them in ``inspect``, and each class it
#: decorates execs generated methods.  On Python 3.12.1 and 3.13.0
#: ``importlib.resources``, which ``rewards`` imports, loads ``inspect``
#: itself, so ``inspect`` is held out there.
SLOW_IMPORTS = {"dataclasses"} | ({"inspect"} if sys.version_info < (3, 12) else set())


@pytest.mark.parametrize("name", COMMAND_MODULES)
def test_each_command_runs_only_the_modules_it_calls(cli_workspace, name):
    # importing the package or the command line runs no submodule's code,
    # and no command loads what its record types used to need
    command, modules = COMMAND_MODULES[name]
    code, ran, loaded = fresh_process(RUN_COMMAND, *command, cwd=cli_workspace)
    assert code == 0 and set(ran) == modules
    assert SLOW_IMPORTS.isdisjoint(loaded)


def test_every_submodule_runs_without_dataclasses():
    # the package's records are plain classes: running every submodule, the
    # command line's too, loads no module of SLOW_IMPORTS
    from lyricmelody import _EXPORTS

    touch_all = """
import json, sys, types
before = set(sys.modules)
import lyricmelody, lyricmelody.cli
for names in lyricmelody._EXPORTS.values():
    getattr(lyricmelody, names[0])
print(json.dumps([sorted(name for name in lyricmelody._EXPORTS
                         if type(vars(lyricmelody)[name]) is types.ModuleType),
                  sorted(set(sys.modules) - before)]))
"""
    ran, loaded = fresh_process(touch_all)
    assert ran == sorted(_EXPORTS)
    assert SLOW_IMPORTS.isdisjoint(loaded)


def test_threads_that_touch_the_package_first_all_see_it_whole():
    # a module made plain before its code ran would hand a racing thread a
    # half-run namespace
    names = ["DecodeOptions", "DecodeOptions", "evaluate_pair"]
    assert fresh_process(FIRST_TOUCH) == (names * 3)[:8]


def test_the_parsers_spelt_out_choices_are_the_live_ones():
    from lyricmelody import PRESET_LAMBDAS, cli

    parser = cli.build_parser()
    subparsers, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    choices = {(name, a.dest): a for name, sub in subparsers.choices.items()
               for a in sub._actions if a.choices}
    modes = [m.value for m in DecodeMode if m is not DecodeMode.TWO_STAGE]
    assert choices["generate", "mode"].choices == modes
    for name in ("generate", "compare"):
        assert choices[name, "preset"].choices == sorted(PRESET_LAMBDAS)
    for preset, mode in cli.COMPARE_MODES.values():
        assert preset in (None, *PRESET_LAMBDAS) and DecodeMode(mode)
