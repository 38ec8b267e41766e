"""Command-line front end: config parsing, study dispatch, artifact output.

Every subcommand reads one config file, applies ``--set`` overrides, runs,
and writes ``report.json``, one CSV per result table, and a ``manifest.txt``
recording the config hash, master seed and library versions. Data files are
byte-identical across reruns and thread counts; timestamps are confined to
the manifest.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import (ResolvedConfig, build_function, build_process,
                     build_study, load_config, read_seed)
from .errors import CapabilityError, ConfigError, SimulationError
from .experiments import run_study
from .grids import build_grid
from .processes import dump_paths_csv, simulate_paths
from .seminorms import fourier_lebesgue_seminorm, sobolev_seminorm

_STUDY_KINDS = {"rate-study": "rate", "clt-check": "clt",
                "efficiency": "efficiency", "diagnostics": "diagnostics"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call of a process."""
    parser = argparse.ArgumentParser(
        prog="occutime",
        description="Occupation-time quadrature studies")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("simulate", "norms", *_STUDY_KINDS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: cores)")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")
    return parser


def _resolve_threads(flag: int | None) -> int:
    if flag is not None:
        return max(1, flag)
    return os.cpu_count() or 1


def _write_csv(path: Path, rows: list) -> None:
    with open(path, "w") as fh:
        if not rows:
            fh.write("\n")
            return
        columns = list(rows[0])
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[c]) for c in columns) + "\n")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _finite_or_null(v):
    """Replace non-finite floats by None, so that report.json is strict JSON."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return v


def _documented_nonfinite(key: str, record: dict, tables: dict) -> bool:
    """Whether a nan or inf is one of the documented values: the slope of a
    fit that was not run (degenerate or single resolution), the value of a
    seminorm flagged divergent, the nan tail exponent of a seminorm whose
    integrand shows no tail, and the Kendall trend of a frequency whose
    ``g_hat`` does not vary over n (a single n, or u = 0)."""
    if key == "slope":
        return "slope_se" not in record
    if key.endswith("value") and record.get(key[:-5] + "divergent") is True:
        return True
    if key == "tail_exponent":
        return math.isnan(record[key])
    if key in ("kendall_tau", "p_value") and "u" in record:
        column = {r["g_hat"] for r in tables.get("g_decay", ())
                  if r["u"] == record["u"]}
        return len(column) <= 1
    return False


def _first_nonfinite(tables: dict, summary: dict) -> str | None:
    """Where the first nan or inf of a result sits, unless documented."""
    records = [(f"{name}.csv row {i + 1}", row)
               for name, rows in tables.items() for i, row in enumerate(rows)]
    records.append(("summary", summary))
    records += [(f"summary.{k}", v) for k, v in summary.items()
                if isinstance(v, dict)]
    for where, record in records:
        for key, value in record.items():
            if (isinstance(value, float) and not math.isfinite(value)
                    and not _documented_nonfinite(key, record, tables)):
                return f"{where}, key {key!r} is {value}"
    return None


def _write_artifacts(out_dir: Path, command: str, cfg: ResolvedConfig,
                     seed: int, tables: dict, summary: dict,
                     runtime: float, layout: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    table_files = {}
    for name, rows in tables.items():
        fname = f"{name}.csv"
        _write_csv(out_dir / fname, rows)
        table_files[name] = fname
    digest = hashlib.sha256(cfg.text.encode()).hexdigest()
    report = {
        "command": command,
        "config": cfg.sections,
        "config_sha256": digest,
        "master_seed": seed,
        "summary": summary,
        "tables": table_files,
        "runtime_seconds": runtime,
    }
    if layout:
        report["layout"] = layout
    with open(out_dir / "report.json", "w") as fh:
        json.dump(_finite_or_null(report), fh, indent=2, sort_keys=True,
                  default=str, allow_nan=False)
        fh.write("\n")
    import numpy, scipy
    from . import __version__
    with open(out_dir / "manifest.txt", "w") as fh:
        fh.write(f"command = {command}\n")
        fh.write(f"config_sha256 = {digest}\n")
        fh.write(f"master_seed = {seed}\n")
        fh.write(f"python = {sys.version.split()[0]}\n")
        fh.write(f"numpy = {numpy.__version__}\n")
        fh.write(f"scipy = {scipy.__version__}\n")
        fh.write(f"occutime = {__version__}\n")
        fh.write(f"created = {datetime.now(timezone.utc).isoformat()}\n")


def _run_simulate(cfg: ResolvedConfig, seed_override, out_dir) -> tuple:
    spec = build_process(cfg)
    n = cfg.number("simulate", "n", kind=int)
    refine = cfg.number("simulate", "refine", "1", int)
    paths = cfg.number("simulate", "paths", kind=int)
    seed = read_seed(cfg, "simulate", seed_override)
    horizon = cfg.number("simulate", "horizon", "1.0")
    for key, value in (("n", n), ("refine", refine), ("paths", paths),
                       ("horizon", horizon)):
        if value <= 0:
            raise ConfigError(f"[simulate] {key} must be > 0, got {value}")
    grid = build_grid(horizon, n, refine)
    bundle = simulate_paths(spec, grid, paths, seed)
    bad = np.argwhere(~np.isfinite(bundle.x))
    if bad.size:
        path, node = bad[0, :2]
        raise SimulationError(f"path {path} is not finite at time "
                              f"{grid.fine_times[node]}")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "paths.csv", "w") as fh:
        dump_paths_csv(bundle, fh)
    summary = {"paths": paths, "n": n, "refine": refine, "horizon": horizon,
               "dimension": bundle.dimension}
    return seed, {}, summary


def _run_norms(cfg: ResolvedConfig, seed_override) -> tuple:
    f = build_function(cfg)
    if f.fourier is None:
        raise ConfigError(f"[function] descriptor: norms needs a closed-form "
                          f"Fourier transform; {f.name} has none")
    s = cfg.number("norms", "s", "1.0")
    which = cfg.get("norms", "norm", "both").strip().lower()
    if which not in ("sobolev", "fourier_lebesgue", "both"):
        raise ConfigError(f"[norms] norm: unknown norm kind {which!r}")
    rows = []
    summary = {"function": f.name, "s": s}
    for form, seminorm in (("sobolev", sobolev_seminorm),
                           ("fourier_lebesgue", fourier_lebesgue_seminorm)):
        if which not in (form, "both"):
            continue
        try:
            r = seminorm(f, s)
        except ConfigError as exc:      # the smoothness order is out of range
            raise ConfigError(f"[norms] s: {exc}") from exc
        rows.append({"form": form, "s": s, "value": r.value,
                     "divergent": r.divergent, "tail_exponent": r.tail_exponent})
        summary[f"{form}_value"] = r.value
        summary[f"{form}_divergent"] = r.divergent
    seed = 0 if seed_override is None else read_seed(cfg, "norms",
                                                      seed_override)
    return seed, {"norms": rows}, summary


def _run_study_command(kind: str, cfg: ResolvedConfig, seed_override,
                       threads: int) -> tuple:
    study = build_study(cfg, kind, seed_override, threads)
    report = run_study(study)
    return study.master_seed, report.tables, report.summary, report.layout


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 1
    try:
        cfg = load_config(config_path.read_text(), args.overrides)
        started = time.perf_counter()
        out_dir = Path(args.out)
        layout = {}
        if args.subcommand == "simulate":
            seed, tables, summary = _run_simulate(cfg, args.seed, out_dir)
        elif args.subcommand == "norms":
            seed, tables, summary = _run_norms(cfg, args.seed)
        else:
            seed, tables, summary, layout = _run_study_command(
                _STUDY_KINDS[args.subcommand], cfg, args.seed,
                _resolve_threads(args.threads))
        runtime = time.perf_counter() - started
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, CapabilityError, FloatingPointError,
            ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    bad = _first_nonfinite(tables, summary)
    if bad is not None:
        print(f"numerical failure: non-finite result in {bad}",
              file=sys.stderr)
        return 2
    _write_artifacts(out_dir, args.subcommand, cfg, seed, tables, summary,
                     runtime, layout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
