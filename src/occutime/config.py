"""Experiment configuration files.

Flat key-value text with section headers (configparser syntax). Every key is
validated against the schema below; unknown keys are hard errors naming the
offending key. See ``docs/config.md`` for the documented schema.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from functools import partial

from .errors import ConfigError
from .experiments import StudyConfig
from .functions import TestFunction, parse_function
from .processes import (
    BrownianMotion,
    DeterministicGaussian,
    ProcessSpec,
    StochVol,
)

_SCHEMA = {
    "process": {"kind", "dimension", "x0", "shift_half_width",
                "sigma0", "eta", "drift_const", "diffusion_const"},
    "function": {"descriptor"},
    "study": {"n_list", "refine", "paths", "seed", "estimators",
              "horizon", "t_eval", "u_list"},
    "norms": {"s", "norm"},
    "simulate": {"n", "refine", "paths", "seed", "horizon"},
}


@dataclass(frozen=True)
class ResolvedConfig:
    """Parsed and validated configuration plus its normalized text form."""

    sections: dict            # section -> {key: raw string}
    text: str                 # canonical text after overrides

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str) -> str:
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"missing required key [{section}] {key}")
        return value

    def number(self, section: str, key: str, default: str | None = None,
               kind=float):
        """[section] key as a float or int, required unless a default is
        given; a value of the wrong kind is a ConfigError naming the key."""
        text = self.get(section, key, default) or self.require(section, key)
        return _number(text, kind, section, key)

    def numbers(self, section: str, key: str, default: str | None = None,
                kind=float) -> tuple:
        """Comma-separated list form of :meth:`number`."""
        text = self.get(section, key, default) or self.require(section, key)
        return tuple(_number(p, kind, section, key)
                     for p in text.split(",") if p.strip())


def _number(text: str, kind, section: str, key: str):
    try:
        value = float(text)
        if kind is float:
            if math.isfinite(value):
                return value
        elif value.is_integer():    # exact for long digit strings
            return int(text) if text.strip().isdigit() else int(value)
    except ValueError:
        pass
    what = "a finite number" if kind is float else "an integer"
    raise ConfigError(f"[{section}] {key} must be {what}, got {text.strip()!r}")


def _validate(parser: configparser.ConfigParser):
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                allowed = ", ".join(sorted(_SCHEMA[section]))
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"allowed keys: {allowed}")


def _apply_overrides(parser: configparser.ConfigParser, overrides):
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form "
                              "section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override key {target!r} must be section.key")
        section, key = target.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"override names unknown key [{section}] {key}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value


def _canonical_text(parser: configparser.ConfigParser) -> str:
    out = io.StringIO()
    for section in sorted(parser.sections()):
        out.write(f"[{section}]\n")
        for key in sorted(parser[section]):
            out.write(f"{key} = {parser[section][key]}\n")
    return out.getvalue()


def load_config(text: str, overrides=()) -> ResolvedConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    _apply_overrides(parser, overrides)
    _validate(parser)
    sections = {s: dict(parser[s]) for s in parser.sections()}
    return ResolvedConfig(sections, _canonical_text(parser))


def read_seed(cfg: ResolvedConfig, section: str,
              override: int | None = None) -> int:
    """The master seed: ``--seed`` if given, else [section] seed. Path
    streams are keyed by it, so it must be a non-negative integer."""
    if override is not None:
        seed, key = override, "--seed"
    else:
        seed, key = cfg.number(section, "seed", kind=int), f"[{section}] seed"
    if seed < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {seed}")
    return seed


def build_process(cfg: ResolvedConfig) -> ProcessSpec:
    kind = cfg.get("process", "kind", "brownian").strip().lower()
    common = dict(dimension=cfg.number("process", "dimension", "1", int))
    if cfg.get("process", "x0") is not None:
        common["x0"] = cfg.numbers("process", "x0")
    if cfg.get("process", "shift_half_width") is not None:
        common["shift_half_width"] = cfg.number("process", "shift_half_width")

    if kind == "brownian":
        make = partial(BrownianMotion, **common)
    elif kind == "stochvol":
        make = partial(StochVol, sigma0=cfg.number("process", "sigma0", "1.0"),
                       eta=cfg.number("process", "eta", "0.5"), **common)
    elif kind == "deterministic_gaussian":
        make = partial(_constant_gaussian, cfg, **common)
    else:
        raise ConfigError(f"[process] kind: unknown process kind {kind!r}; "
                          "choose brownian, deterministic_gaussian or stochvol")
    return _in_section("process", make)


def _in_section(section: str, make):
    """``make()``, whose ConfigError messages open with the key's name: in
    [section] unless the message names a section."""
    try:
        return make()
    except ConfigError as exc:
        text = str(exc)
        raise ConfigError(text if text.startswith("[")
                          else f"[{section}] {text}") from exc


def _constant_gaussian(cfg: ResolvedConfig, **common) -> DeterministicGaussian:
    """The deterministic Gaussian of constant drift vector ``drift_const``
    and diagonal diffusion entries ``diffusion_const`` (zeros and ones by
    default), one entry per dimension."""
    import numpy as np
    # the spec names a bad dimension, x0 or shift before the lengths are read
    d = DeterministicGaussian(drift=None, diffusion=None, **common).dimension
    b = cfg.numbers("process", "drift_const", ",".join(["0.0"] * d))
    s = cfg.numbers("process", "diffusion_const", ",".join(["1.0"] * d))
    if len(b) != d or len(s) != d:
        raise ConfigError("drift_const / diffusion_const must have one entry "
                          "per dimension")
    bv = np.asarray(b)
    sm = np.diag(s)
    return DeterministicGaussian(
        drift=lambda t: bv,
        diffusion=lambda t: sm,
        nondegenerate=all(v != 0 for v in s), **common)


def build_function(cfg: ResolvedConfig) -> TestFunction:
    descriptor = cfg.require("function", "descriptor")
    try:
        return parse_function(descriptor)
    except ConfigError as exc:
        raise ConfigError(f"[function] descriptor: {exc}") from exc


def build_study(cfg: ResolvedConfig, kind: str, seed_override: int | None = None,
                threads: int = 1) -> StudyConfig:
    spec = build_process(cfg)
    function = build_function(cfg)
    n_list = cfg.numbers("study", "n_list", kind=int)
    seed = read_seed(cfg, "study", seed_override)
    t_eval = cfg.get("study", "t_eval")
    estimators = tuple(
        p.strip() for p in cfg.get("study", "estimators",
                                   "riemann,trapezoid").split(",") if p.strip())
    return _in_section("study", partial(
        StudyConfig,
        spec=spec,
        function=function,
        n_list=n_list,
        refine=cfg.number("study", "refine", "64", int),
        paths=cfg.number("study", "paths", kind=int),
        master_seed=seed,
        kind=kind,
        estimators=estimators,
        t_eval=None if t_eval is None else cfg.number("study", "t_eval"),
        horizon=cfg.number("study", "horizon", "1.0"),
        threads=threads,
        u_list=cfg.numbers("study", "u_list", "1,3,10"),
    ))
