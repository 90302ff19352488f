"""F5: Fig 5 — application acceleration, the paper's headline evaluation.

Six games x {Nexus 5, LG G5} x {local, GBooster vs the Shield}, reporting
median FPS (a/d), FPS stability (b/e) and average response time (c/f).
Paper anchors on the Nexus 5: G1 23->37, G2 22->40, G5 50->52; on the
LG G5 the prototype barely moves the metrics.
"""

import pytest
from conftest import MATRIX_WORKERS, print_table

from repro.apps.games import GAMES
from repro.devices.profiles import LG_G5, LG_NEXUS_5
from repro.experiments.acceleration import format_rows, run_figure5


@pytest.mark.parametrize("device", [LG_NEXUS_5, LG_G5],
                         ids=["nexus5", "lg_g5"])
def test_fig5_matrix(run_once, session_duration_ms, device):
    rows = run_once(
        run_figure5,
        duration_ms=session_duration_ms,
        devices=[device],
        workers=MATRIX_WORKERS,
    )
    print_table(
        f"Fig 5 ({device.name}): median FPS / stability / response",
        "", format_rows(rows).splitlines(),
    )
    by_game = {r.game: r for r in rows}
    if device is LG_NEXUS_5:
        # Action games gain dramatically (paper: +60% to +85%).
        assert by_game["G1"].fps_boost_percent > 35.0
        assert by_game["G2"].fps_boost_percent > 45.0
        # Puzzle games barely move (paper: 50 -> 52).
        assert abs(by_game["G5"].boosted_fps - by_game["G5"].local_fps) <= 4
        # Local medians match the paper's anchors.
        assert by_game["G1"].local_fps == pytest.approx(23, abs=1.5)
        assert by_game["G2"].local_fps == pytest.approx(22, abs=1.5)
        assert by_game["G5"].local_fps == pytest.approx(50, abs=3.0)
        # Every offloaded response stays below ~60 ms (paper: < 36 ms).
        for row in rows:
            assert row.boosted_response_ms < 60.0
    else:
        # New-generation device: every game within a few FPS of local.
        for row in rows:
            assert abs(row.boosted_fps - row.local_fps) <= 6.0
        # ...and response time increases (Eq. 5's t_p with no FPS gain).
        assert sum(
            1 for r in rows if r.boosted_response_ms > r.local_response_ms
        ) >= 4


def test_fig5_stability_long_session(run_once):
    """Stability needs the 15-minute session: the Nexus 5 throttles after
    ~10 min locally (paper: 60% stability), while offloading to the
    fan-cooled Shield holds steady (paper: 75%)."""
    from repro.experiments.acceleration import run_acceleration_cell

    row = run_once(
        run_acceleration_cell, GAMES["G1"], LG_NEXUS_5,
        duration_ms=900_000.0,
    )
    print_table(
        "Fig 5(b) long-run stability for G1 on Nexus 5",
        "mode / stability",
        [
            f"local    {row.local_stability * 100:.0f}%  (paper 60%)",
            f"boosted  {row.boosted_stability * 100:.0f}%  (paper 75%)",
        ],
    )
    assert row.local_stability < 0.8          # thermal throttle bites
    assert row.boosted_stability > row.local_stability
