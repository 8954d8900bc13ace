"""Config file handling: defaults, YAML loading, dotted-path overrides.

The resolved config (defaults + file + overrides) is what a run snapshots
into its run directory, so experiment records stay diffable.
"""

from __future__ import annotations

import dataclasses
import re

import yaml

from .data import SyntheticSpec
from .errors import ConfigError
from .pipeline import TrainConfig


def default_config():
    """Every config key at its default: the dataclass field values."""
    cfg = dataclasses.asdict(TrainConfig())
    cfg["hidden_dims"] = list(cfg["hidden_dims"])  # YAML has no tuples
    cfg["synthetic"] = dataclasses.asdict(SyntheticSpec())
    return cfg


def _merge(base, incoming, prefix=""):
    for key, value in incoming.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path!r} must be a section")
            _merge(base[key], value, prefix=path + ".")
        else:
            base[key] = value


def _check_types(value, default, path=""):
    """Each value must have the type of its default.  An int may stand for
    a float, but a bool is not an int."""
    if isinstance(default, float) and type(value) is int:
        return
    if type(value) is not type(default):
        raise ConfigError(f"{path!r} must be {type(default).__name__}, "
                          f"not {value!r}")
    if isinstance(default, dict):
        for key in default:
            _check_types(value[key], default[key],
                         f"{path}.{key}" if path else key)
    elif isinstance(default, list):
        for i, item in enumerate(value):
            _check_types(item, default[0], f"{path}[{i}]")


class _Loader(yaml.SafeLoader):
    """`yaml.safe_load`'s YAML 1.1, except that exponent notation without a
    dot or an exponent sign (`1e-3`, `2.5e3`) is a float, as in YAML 1.2."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def _parse_yaml(stream, where):
    try:
        return yaml.load(stream, Loader=_Loader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        mark = getattr(exc, "problem_mark", None)
        at = (f" at line {mark.line + 1}, column {mark.column + 1}"
              if mark else "")
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"{where}: invalid YAML{at}: {problem}") from exc


def load_config(path=None, overrides=()):
    """Defaults, optionally updated from a YAML file and key=value pairs.

    Override values are parsed as YAML scalars so `dbscan.ms=4` yields an
    int and `loss.kind=prototype` a string.  Unknown keys, malformed YAML
    and values whose type differs from the default's are errors.
    """
    cfg = default_config()
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            loaded = _parse_yaml(f, path) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        _merge(cfg, loaded)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, _, raw = item.partition("=")
        value = _parse_yaml(raw, f"override {item!r}")
        for part in reversed(dotted.split(".")):
            value = {part: value}
        _merge(cfg, value)
    _check_types(cfg, default_config())
    return cfg


def dump_config(cfg, path):
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(cfg, f, sort_keys=True, default_flow_style=None)


def build_train_config(cfg):
    """Validated TrainConfig from every config key but `synthetic`; each
    section becomes an instance of its `TrainConfig()` default's class."""
    defaults = TrainConfig()
    kwargs = {key: type(getattr(defaults, key))(**value)
              if isinstance(value, dict) else value
              for key, value in cfg.items() if key != "synthetic"}
    kwargs["hidden_dims"] = tuple(cfg["hidden_dims"])
    tc = TrainConfig(**kwargs)
    tc.validate()
    return tc


def build_synthetic_spec(cfg):
    spec = SyntheticSpec(**cfg["synthetic"])
    spec.validate()
    return spec
