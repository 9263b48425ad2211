"""The mutant register: hand-made faults in hot paths, each with the tests
that must catch it.

A speed-up that rests on a budget or an exactness argument is only as safe
as the tests that would notice it going wrong.  Each entry below names a
source file, an exact ``old -> new`` patch that must match the file once,
and the pytest node ids that must fail once the patch is in.  The runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` under
``.bench_build/mutants/``, checks that every named node passes unpatched,
then applies each mutant alone to a fresh copy of its file and runs its
nodes.  It exits non-zero if a named node does not fail (a survivor) or a
patch no longer matches exactly once (a stale entry).

A mutant is removed or re-pointed only by a change that says why in
CHANGES.md.  This file is a plain script, not collected by pytest:

    python tests/mutants.py            # every mutant
    python tests/mutants.py --list     # names only
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "mutants"
CLI = "src/lyricmelody/cli.py"
DECODER = "src/lyricmelody/decoder.py"
INIT = "src/lyricmelody/__init__.py"
LYRICS = "src/lyricmelody/lyrics.py"
MELODY = "src/lyricmelody/melody.py"
METRICS = "src/lyricmelody/metrics.py"
REWARDS = "src/lyricmelody/rewards.py"
SCORER = "src/lyricmelody/scorer.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    nodes: tuple  # each must report at least one failed test


MUTANTS = (
    Mutant(
        "a walk that stops at exactly n entries, dropping ties with the n-th",
        DECODER,
        "        if len(out) == n:\n            bar = s\n",
        "        if len(out) == n:\n            break\n",
        ("tests/test_decoder.py::TestNearTiesThroughTheWalk",),
    ),
    Mutant(
        "a walk over unranked moves: a ranking by vocabulary position",
        DECODER,
        "ranked = entry[slot] = sorted(moves, key=lambda m: dist[m[2]], reverse=True)",
        "ranked = entry[slot] = list(moves)",
        ("tests/test_decoder.py::TestNearTiesThroughTheWalk",
         "tests/test_budgets.py::test_threads_sharing_a_model_decode_as_a_serial_run"),
    ),
    Mutant(
        "eager ranking: every table's continuations ranked on its first lookup",
        DECODER,
        "            dist.derived = [self, maxima, None, None]\n",
        "            dist.derived = [self, maxima, sorted(\n"
        "                self.ranked[0][1], key=lambda m: dist[m[2]], reverse=True)\n"
        "                if self.ranked else None, None]\n",
        ("tests/test_budgets.py::"
         "test_each_live_table_is_ranked_at_most_once_and_only_when_walked",),
    ),
    Mutant(
        "a start walk that stops at exactly n entries, dropping ties with the n-th",
        DECODER,
        "        if len(out) == n:\n            bar = s\n",
        "        if len(out) == n:\n            if moves.slot == 3:\n                break\n"
        "            bar = s\n",
        ("tests/test_decoder.py::TestNearTiesThroughTheStartWalk",),
    ),
    Mutant(
        "every start as one class for a plan that has a harmony cell or a structure partner",
        DECODER,
        "        if plan.cell is None and plan.partner_delta is None:",
        "        if plan.cell is None or plan.partner_delta is None:",
        ("tests/test_decoder.py::TestOutputPin",
         "tests/test_decoder.py::TestScoreFirstBeamMatchesReference",
         "tests/test_budgets.py::test_a_pitch_independent_plans_starts_cost_one_completion"),
    ),
    Mutant(
        "a vocabulary's clock reused across meters: the first meter's answers every meter",
        DECODER,
        "    if (clock := clocks.get(meter)) is None:",
        "    if (clock := next(iter(clocks.values()), None)) is None:",
        ("tests/test_budgets.py::"
         "test_a_vocabulary_keeps_one_clock_per_meter_and_builds_each_once",
         "tests/test_decoder.py::TestOutputPin"),
    ),
    Mutant(
        "-score < bar: moves tied at the bar are not built",
        DECODER,
        "if (s := -((b := base + dist[k]) + reward)) <= bar]",
        "if (s := -((b := base + dist[k]) + reward)) < bar]",
        ("tests/test_decoder.py::TestTiesAtTheBar",),
    ),
    Mutant(
        "a walk that stops at the bar instead of past it",
        DECODER,
        "if (s := -((b := base + dist[k]) + reward)) > bar:",
        "if (s := -((b := base + dist[k]) + reward)) >= bar:",
        ("tests/test_decoder.py::TestTiesThroughTheWalk",),
    ),
    Mutant(
        "weighted_total back in plan",
        REWARDS,
        "                total += config.lambda_tone * ev.value\n",
        "                total = weighted_total([ev], config, self.active, total)\n",
        ("tests/test_budgets.py::test_beam_counts_ticks_and_reads_rows",),
    ),
    Mutant(
        "apply stepping st.onset in place",
        REWARDS,
        "        return _State(st.onset + ticks, st.syl, st.span_open,",
        "        st.onset += ticks\n        return _State(st.onset, st.syl, st.span_open,",
        ("tests/test_decoder.py::TestSharedRecordsStayUnchanged",),
    ),
    Mutant(
        "a lookup hit without the is-self check: another vocabulary's entry answers",
        DECODER,
        "        if entry is not None and entry[0] is self:",
        "        if entry is not None:",
        ("tests/test_budgets.py::"
         "test_one_table_looked_up_under_two_vocabularies_answers_each_with_its_own",),
    ),
    Mutant(
        "a table without __reduce__: a decoded model pickles its derived entries, or fails",
        SCORER,
        "\n    def __reduce__(self):  # from the items",
        "\n    def _unused_reduce(self):  # from the items",
        ("tests/test_scorer.py::TestSerialization::"
         "test_a_bundle_that_has_decoded_copies_as_a_fresh_one",),
    ),
    Mutant(
        "eager start completion in beam-hard",
        DECODER,
        "(pitches := ctx.candidates(h.state, plan)) is not None:",
        "(pitches := None) is not None:",
        ("tests/test_budgets.py::"
         "test_beam_hard_completes_only_candidate_starts_on_steps_that_do_not_relax",),
    ),
    Mutant(
        "echo tops cut to one: beam-hard skips pitches the echo row pays in full",
        REWARDS,
        "echo_top=[delta for delta, (_, _, below) in zip(echo_deltas, echo) if not below],",
        "echo_top=[delta for delta, (_, _, below) in zip(echo_deltas, echo) if not below][:1],",
        ("tests/test_decoder.py::TestScoreFirstBeamMatchesReference::"
         "test_wide_and_empty_candidate_sets",),
    ),
    Mutant(
        "no deferred completion: a relaxing step never builds the starts it set aside",
        DECODER,
        "        if deferred and not pool:",
        "        if False:",
        ("tests/test_decoder.py::TestScoreFirstBeamMatchesReference",),
    ),
    Mutant(
        "a hard mask that ignores strong/weak and pause",
        REWARDS,
        "        return _Plan(end, rest, cell, first, partner_delta, last, terms, below)\n",
        "        return _Plan(end, rest, cell, first, partner_delta, last,\n"
        "                     tuple((term, False) for term, _ in terms), masked)\n",
        ("tests/test_decoder.py::TestHardBeamWithoutRelaxation",),
    ),
    Mutant(
        "row tops cut to three deltas: beam-hard skips pitches a cell row pays in full",
        REWARDS,
        "tops[tones] = [delta for delta, (_, _, below) in zip(row_deltas, row) if not below]",
        "tops[tones] = [delta for delta, (_, _, below) in zip(row_deltas, row) if not below][:3]",
        ("tests/test_decoder.py::TestScoreFirstBeamMatchesReference::"
         "test_wide_and_empty_candidate_sets",),
    ),
    Mutant(
        "a plain transition_rewards dict: a config's checked rewards can change after the check",
        REWARDS,
        "        rewards = MappingProxyType(dict(self.transition_rewards))\n",
        "        rewards = dict(self.transition_rewards)\n",
        ("tests/test_rewards.py::TestConfigValidation::test_transition_rewards_stay_as_checked",),
    ),
    Mutant(
        "an MD packing whose length field is too narrow: a long path's length carries into its cost",
        METRICS,
        "    unit = 1 << 32  #",
        "    unit = 1 << 7  #",
        ("tests/test_metrics.py::TestAgainstReference::"
         "test_md_and_histograms_match_on_long_random_sequences",),
    ),
    Mutant(
        "a partner map zipped from the anchor's side: each anchor syllable maps to its repeat",
        REWARDS,
        "for i, j in zip(range(*sent.span), range(*anchor.span))}",
        "for i, j in zip(range(*anchor.span), range(*sent.span))}",
        ("tests/test_rewards.py::TestFoldMatchesReferenceScan::test_events_equal_whole_pair_scan",
         "tests/test_rewards.py::TestWholePairScan::"
         "test_structure_pairs_compare_first_notes_across_melisma"),
    ),
    Mutant(
        "Aspect without its C hash: every λ and active-set lookup runs Enum.__hash__",
        REWARDS,
        "    __hash__ = object.__hash__  # in C, for the per-event λ and active-set lookups\n",
        "",
        ("tests/test_budgets.py::"
         "test_evaluate_then_score_scans_repeats_once_with_no_python_fraction_or_enum_method",),
    ),
    Mutant(
        "a deferred module made plain before its code runs: racing threads read it half-run",
        INIT,
        "                try:\n                    _read(self, \"__spec__\").loader.exec_module(self)\n",
        "                self.__class__ = types.ModuleType\n"
        "                try:\n                    _read(self, \"__spec__\").loader.exec_module(self)\n",
        ("tests/test_budgets.py::test_threads_that_touch_the_package_first_all_see_it_whole",),
    ),
    Mutant(
        "the command line importing a decoder function: every command runs the decoder",
        CLI,
        "from .errors import AlignmentError, InputError, InternalError, OptionError\n",
        "from .decoder import decode\n"
        "from .errors import AlignmentError, InputError, InternalError, OptionError\n",
        ("tests/test_budgets.py::test_each_command_runs_only_the_modules_it_calls",),
    ),
    Mutant(
        "a record hash that leaves out the last field",
        LYRICS,
        "        return hash(self._values())\n",
        "        return hash(self._values()[:-1])\n",
        ("tests/test_records.py::test_repr_eq_and_hash_match_the_twins",),
    ),
    Mutant(
        "the lyrics module importing dataclasses: every command but --version loads it",
        LYRICS,
        "import json\n",
        "import dataclasses\nimport json\n",
        ("tests/test_budgets.py::test_each_command_runs_only_the_modules_it_calls",
         "tests/test_budgets.py::test_every_submodule_runs_without_dataclasses"),
    ),
    Mutant(
        "a Melody that does not check its meter: a meter no beat grid holds builds",
        MELODY,
        "        check_meter(self.time_signature)\n",
        "",
        ("tests/test_melody.py::TestMelodyInvariants::test_meter_check_meter_rejects_never_builds",
         "tests/test_midi.py::TestErrors::test_zero_time_signature_numerator"),
    ),
)


def pytest(nodes) -> tuple[int, list[str]]:
    """(exit code, failed node ids) of one pytest run over ``nodes`` in the copy."""
    env = dict(os.environ, PYTHONPATH=str(BUILD / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *nodes],
        cwd=BUILD, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    return run.returncode, failed


def caught(node: str, failed: list[str]) -> bool:
    return any(f == node or f.startswith((node + "::", node + "[")) for f in failed)


def main(argv: list[str]) -> int:
    if "--list" in argv:
        for mutant in MUTANTS:
            print(f"{mutant.path}: {mutant.name}")
        return 0
    shutil.rmtree(BUILD, ignore_errors=True)
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, BUILD / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", BUILD / "pyproject.toml")
    start = time.perf_counter()
    nodes = sorted({node for mutant in MUTANTS for node in mutant.nodes})
    code, failed = pytest(nodes)
    if code != 0:
        print(f"unpatched: pytest exited {code}; failed: {failed or 'none reported'}")
        return 1
    faults = 0
    for mutant in MUTANTS:
        target = BUILD / mutant.path
        pristine = (ROOT / mutant.path).read_text()
        if pristine.count(mutant.old) != 1:
            print(f"STALE     {mutant.name}: the patch matches {pristine.count(mutant.old)} times")
            faults += 1
            continue
        target.write_text(pristine.replace(mutant.old, mutant.new))
        try:
            code, failed = pytest(mutant.nodes)
        finally:
            target.write_text(pristine)
        survived = [node for node in mutant.nodes if not caught(node, failed)]
        if code not in (0, 1) or survived:
            print(f"SURVIVED  {mutant.name}: pytest exited {code}; not caught by {survived}")
            faults += 1
        else:
            print(f"caught    {mutant.name}: {len(failed)} failed")
    print(f"{len(MUTANTS)} mutants, {faults} survived or stale, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
