"""Set-up probe, run in a fresh process: ``probe.py <workload> <seed>``.

Times ``import lsc``, parsing the generated config, ``build_code()`` and
one warm-up call that fills the field's lazy caches.  Prints the seconds
taken twice: in reference seconds, scaled by calibration bursts run just
before and just after (``speed.py``), and raw.  ``run.py`` starts it
several times and reports the median of the first as ``setup_s``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import burst, speed_factor  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

CALIBRATION_BURSTS = 4  # on each side of the timed set-up


def set_up(workload: str, seed: int):
    """import lsc, parse unit 0's config, build the code and warm it up."""
    import lsc  # noqa: F401
    from lsc import harness, properties
    from lsc.config import parse_config

    cfg = parse_config(config_text(workload, seed, 0), source=f"<{workload}>")
    code = cfg.build_code()
    if WORKLOADS[workload].kind == "verify":
        ctx = properties.VerifyContext(
            params=code.params, code=code, seed=cfg.seed, counts={"random_checks": 20}
        )
        properties.field_suite(ctx)
    elif cfg.channel_mode == "exact":
        rho, t = cfg.grid()[-1]
        harness.run_trial(code, cfg.seed, 0, rho, t, cfg.algorithms(), cfg.max_sweeps)
    else:
        harness.run_trial(
            code, cfg.seed, 0, None, None, cfg.algorithms(), cfg.max_sweeps,
            "matrix", cfg.collected, cfg.error_packets,
        )
    return cfg


def main(workload: str, seed: int) -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    before = [burst() for _ in range(2 * CALIBRATION_BURSTS)][CALIBRATION_BURSTS:]
    start = time.perf_counter()
    set_up(workload, seed)
    raw = time.perf_counter() - start
    after = [burst() for _ in range(CALIBRATION_BURSTS)]
    print(repr(raw * speed_factor(before + after)), repr(raw))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
