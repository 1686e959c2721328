"""Regenerate the paper's tables and figures from the command line.

Usage::

    python -m repro.tools.figures            # list available figures
    python -m repro.tools.figures fig2       # regenerate one
    python -m repro.tools.figures all        # regenerate everything
    REPRO_FAST=1 python -m repro.tools.figures fig4   # trimmed sweep
    python -m repro.tools.figures --parallel 4 all    # 4 worker processes
    python -m repro.tools.figures --trace traces/ fig2   # record traces
    python -m repro.tools.figures --cache all         # reuse cached points
    python -m repro.tools.figures --cache --cache-dir /tmp/c fig4
    python -m repro.tools.figures --kernel python fig4    # numpy solve
    python -m repro.tools.figures faults                  # fault degradation
    python -m repro.tools.figures --faults my_schedule.json faults

Each flag sets the ``REPRO_*`` variable of its row in
:mod:`repro.config`; ``--help`` lists them with their valid values.
``--parallel N`` runs each sweep's cache misses on a pool of ``N``
processes; the output is byte-identical to a serial run.
Each driver prints the same rows the corresponding bench asserts on and
that EXPERIMENTS.md documents.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict

from repro import config
from repro.errors import ConfigurationError
from repro.experiments import figures

DRIVERS: Dict[str, Callable] = {
    "fig2": figures.fig2_write_phase_kraken,
    "fig3": figures.fig3_blueprint_volume,
    "fig4": figures.fig4_scalability_kraken,
    "fig5": figures.fig5_spare_time,
    "fig6": figures.fig6_throughput_kraken,
    "fig7": figures.fig7_spare_strategies,
    "table1": figures.table1_grid5000,
    "faults": figures.fig_fault_degradation,
    "model": figures.model_breakeven,
}

#: The knobs this CLI and its sweep tasks read: every row but servectl's.
_READ = tuple(name for name in config.KNOBS if name != "REPRO_SERVICE_ADDR")


def _row_help(knob: config.Knob) -> str:
    default = knob.default() if callable(knob.default) else knob.default
    shown = f"; default {default}" if default not in (None, "", ()) else ""
    return f"{knob.help} [{knob.env}: {knob.valid}{shown}]"


def _parser():
    import argparse

    env_only = "\n".join(f"  {_row_help(config.KNOBS[name])}"
                         for name in _READ if not config.KNOBS[name].flag)
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.figures", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=f"environment only:\n{env_only}\n\navailable figures: "
               f"{', '.join(sorted(DRIVERS))} | all")
    parser.add_argument("figures", nargs="*", metavar="FIGURE",
                        help="figures to regenerate, or all")
    for knob in config.KNOBS.values():
        if not knob.flag:
            continue
        if knob.parse is config.parse_bool:
            parser.add_argument(knob.flag, dest=knob.env,
                                action="store_const", const="1",
                                help=f"{knob.help} [{knob.env}=1]")
            parser.add_argument(f"--no-{knob.flag[2:]}", dest=knob.env,
                                action="store_const", const="0",
                                help=f"turn {knob.flag} off, whatever "
                                     f"the environment says [{knob.env}=0]")
        else:
            parser.add_argument(knob.flag, dest=knob.env, metavar=knob.env,
                                help=_row_help(knob))
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_intermixed_args(argv)
    except SystemExit as exc:  # --help, or a usage error already printed
        return int(exc.code or 0)
    if not args.figures:
        parser.print_help()
        return 0
    flags = {name: raw for name, raw in vars(args).items()
             if name in config.KNOBS and raw is not None}
    try:
        config.check(_READ, flags)
    except ConfigurationError as exc:
        print(f"figures: {exc}", file=sys.stderr)
        return 2
    names = sorted(DRIVERS) if args.figures[0] == "all" else args.figures
    unknown = [name for name in names if name not in DRIVERS]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"available: {', '.join(sorted(DRIVERS))}", file=sys.stderr)
        return 2
    # Task bodies and pool workers read the knobs from the environment.
    config.export(flags)
    for name in names:
        report = DRIVERS[name]()
        print(report.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
