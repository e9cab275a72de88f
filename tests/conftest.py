from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import superstab
from superstab.cli import generate_instance
from superstab.model import (
    DOCTOR,
    HOSPITAL,
    Edge,
    Instance,
    Vertex,
    all_doctor_choices,
    all_hospital_choices,
    make_instance,
    parse_instance,
)

STRICT_2X2_TEXT = """doctors: d1 d2
hospitals: h1 h2
pref d1: h1 h2
pref d2: h1 h2
pref h1: d1 d2
pref h2: d1 d2
"""

TIE_2X2_TEXT = """doctors: d1 d2
hospitals: h1 h2
pref d1: (h1 h2)
pref d2: (h1 h2)
pref h1: (d1 d2)
pref h2: (d1 d2)
"""

ONE_PAIR_TEXT = """doctors: d1
hospitals: h1
pref d1: h1
pref h1: d1
"""


def run_python(hash_seed: int, *args: str) -> subprocess.CompletedProcess:
    """Run `python ARGS` on this checkout's package with PYTHONHASHSEED fixed."""
    src = str(Path(superstab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


@pytest.fixture
def strict_2x2() -> Instance:
    return parse_instance(STRICT_2X2_TEXT)


@pytest.fixture
def tie_2x2() -> Instance:
    return parse_instance(TIE_2X2_TEXT)


@pytest.fixture
def one_pair() -> Instance:
    return parse_instance(ONE_PAIR_TEXT)


def sample_instances(count: int = 30, max_side: int = 3, seed: str = "unit") -> list[Instance]:
    """Small deterministic random instances for property loops."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(0, max_side)
        m = rng.randint(0, max_side)
        out.append(
            generate_instance(
                n, m, rng.uniform(0.3, 1.0), rng.uniform(0.0, 1.0), seed=f"{seed}-{i}"
            )
        )
    return out


@st.composite
def instances(draw, max_doctors: int = 3, max_hospitals: int = 3, max_levels: int = 3):
    """Hypothesis strategy for small instances with arbitrary ties."""
    n = draw(st.integers(0, max_doctors))
    m = draw(st.integers(0, max_hospitals))
    doctors = [f"d{i}" for i in range(1, n + 1)]
    hospitals = [f"h{j}" for j in range(1, m + 1)]
    adjacency = [
        (d, h) for d in doctors for h in hospitals if draw(st.booleans())
    ]

    def groups_for(partners: list[str]) -> list[list[str]]:
        by_level: dict[int, list[str]] = {}
        for p in partners:
            by_level.setdefault(draw(st.integers(1, max_levels)), []).append(p)
        return [by_level[k] for k in sorted(by_level)]

    doctor_prefs = {
        d: groups_for([h for dd, h in adjacency if dd == d]) for d in doctors
    }
    hospital_prefs = {
        h: groups_for([d for d, hh in adjacency if hh == h]) for h in hospitals
    }
    return make_instance(doctors, hospitals, doctor_prefs, hospital_prefs)


def naive_is_super_stable(inst: Instance, removed, matching) -> bool:
    """Direct quantifier expansion of the definition, kept independent of
    the library's blocking-edge scan."""
    removed = frozenset(removed)
    gone_d = {v.name for v in removed if v.side == DOCTOR}
    gone_h = {v.name for v in removed if v.side == HOSPITAL}
    matching = set(matching)
    held: dict[Vertex, Edge] = {}
    for e in matching:
        held[Vertex(DOCTOR, e.doctor)] = e
        held[Vertex(HOSPITAL, e.hospital)] = e
    for e in inst.edges:
        if e.doctor in gone_d or e.hospital in gone_h or e in matching:
            continue
        d = Vertex(DOCTOR, e.doctor)
        h = Vertex(HOSPITAL, e.hospital)
        d_cur = held.get(d)
        h_cur = held.get(h)
        d_wants = d_cur is None or inst.rank_of(d, e) <= inst.rank_of(d, d_cur)
        h_wants = h_cur is None or inst.rank_of(h, e) <= inst.rank_of(h, h_cur)
        if d_wants and h_wants:
            return False
    return True


def closure_trace_violations(inst: Instance, deleted, forbidden, trace) -> list[str]:
    """Check every mechanical property one closure run must satisfy."""
    bad: list[str] = []
    gone = {v.name for v in deleted}
    seed = frozenset(e for e in inst.edges if e.hospital in gone)
    if trace.initial_forbidden != seed:
        bad.append("initial forbidden set is not the deleted hospitals' edges")
    if not trace.rounds:
        bad.append("trace has no rounds")
        return bad
    if [r.index for r in trace.rounds] != list(range(1, len(trace.rounds) + 1)):
        bad.append("round indices are not 1..k")
    if len(trace.rounds) > len(inst.edges) + 1:
        bad.append("more rounds than edges plus one")
    prev = trace.initial_forbidden
    for r in trace.rounds:
        expect_proposed = all_doctor_choices(inst, inst.edges - prev)
        if r.proposed != expect_proposed:
            bad.append(f"round {r.index}: proposed set is wrong")
        expect_held = all_hospital_choices(inst, r.proposed | prev) & r.proposed
        if r.held != expect_held:
            bad.append(f"round {r.index}: held set is wrong")
        if r.forbidden != prev | (r.proposed - r.held):
            bad.append(f"round {r.index}: forbidden set is wrong")
        if not prev <= r.forbidden:
            bad.append(f"round {r.index}: forbidden set shrank")
        prev = r.forbidden
    last = trace.rounds[-1]
    if len(trace.rounds) >= 2 and last.forbidden != trace.rounds[-2].forbidden:
        bad.append("last round still changed the forbidden set")
    if len(trace.rounds) == 1 and last.forbidden != trace.initial_forbidden:
        bad.append("single-round trace changed the forbidden set")
    if forbidden != last.forbidden:
        bad.append("returned forbidden set differs from the trace result")

    redo = all_doctor_choices(inst, inst.edges - forbidden)
    held = all_hospital_choices(inst, redo | forbidden) & redo
    if forbidden | (redo - held) != forbidden:
        bad.append("re-feeding the fixed point grows it")

    # Forbidden edges a doctor lost (seeded ones aside) must be at least as
    # good for that doctor as anything it still has, at every stage.
    stages = [trace.initial_forbidden] + [r.forbidden for r in trace.rounds]
    for stage_no, stage in enumerate(stages):
        worst_lost: dict[str, int] = {}
        best_left: dict[str, int] = {}
        dr = inst.doctor_rank
        for e in stage:
            if e in seed:
                continue
            worst_lost[e.doctor] = max(worst_lost.get(e.doctor, 0), dr[e])
        for e in inst.edges - stage:
            r = dr[e]
            if e.doctor not in best_left or r < best_left[e.doctor]:
                best_left[e.doctor] = r
        for d, worst in worst_lost.items():
            if d in best_left and worst > best_left[d]:
                bad.append(f"stage {stage_no}: doctor {d!r} lost a worse edge than one it kept")
    return bad
