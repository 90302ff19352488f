"""F6: Fig 6 — normalized energy, with and without interface switching.

Paper: every game saves energy offloaded (action games the most, up to
~70%); disabling the Bluetooth/WiFi switching optimization costs a large
chunk of the saving (G1: 40% -> 65% normalized).
"""

from conftest import MATRIX_WORKERS, print_table

from repro.devices.profiles import LG_G5, LG_NEXUS_5
from repro.experiments.energy import format_rows, run_figure6


def test_fig6_energy(run_once, session_duration_ms):
    rows = run_once(
        run_figure6,
        duration_ms=session_duration_ms,
        devices=[LG_NEXUS_5],
        workers=MATRIX_WORKERS,
    )
    print_table(
        "Fig 6: normalized energy on Nexus 5 "
        "(paper: action ~30-40%, puzzle ~70%; without switching all rise)",
        "", format_rows(rows).splitlines(),
    )
    by_game = {r.game: r for r in rows}
    for row in rows:
        # (a) every game saves energy when offloaded...
        assert row.normalized_with_switching < 0.9, row.game
        # (b) ...and disabling switching never helps.
        assert row.normalized_without_switching >= (
            row.normalized_with_switching - 0.02
        ), row.game
    # Genre ordering: action games save more than puzzle games.
    action = min(
        by_game["G1"].normalized_with_switching,
        by_game["G2"].normalized_with_switching,
    )
    puzzle = max(
        by_game["G5"].normalized_with_switching,
        by_game["G6"].normalized_with_switching,
    )
    assert action < puzzle
    # The switching mechanism shows a clear benefit on at least one
    # BT-friendly game (paper shows it on G1).
    assert max(r.switching_benefit for r in rows) > 0.03


def test_fig6_energy_new_device(run_once):
    """Fig 6(a)'s second panel: the LG G5 also saves energy offloaded —
    the GPU power removed dwarfs the radio cost even when FPS is flat."""
    rows = run_once(
        run_figure6,
        duration_ms=120_000.0,
        devices=[LG_G5],
        games=["G1", "G3", "G5"],
        workers=MATRIX_WORKERS,
    )
    print_table(
        "Fig 6 (LG G5): normalized energy",
        "", format_rows(rows).splitlines(),
    )
    for row in rows:
        assert row.normalized_with_switching < 0.95, row.game
        assert row.normalized_without_switching >= (
            row.normalized_with_switching - 0.02
        )
