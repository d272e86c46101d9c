"""Run configuration: JSON schema, exhaustive validation, spec assembly.

A run config names the dataset, the MLP shape, the optimizer, and the
per-layer-group clustering schemes ("hidden" covers every layer but the
last, "output" the last one, "all" both). Validation collects every
problem it can find and reports them together, before any work starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

from .compression import LayerPolicy
from .core import DkmConfig
from .errors import ConfigError, DataError, ParameterError, integer
from .harness import ModelSpec, TrainConfig, dataset_problems

GROUP_NAMES = ("hidden", "output", "all")

# The config key of each ModelSpec setting that does not depend on the layers.
_SPEC_KEYS = {"seed": "model.seed", "attention_mode": "compression.mode"}


@dataclass
class RunSpec:
    """A validated run: everything needed to build data, model, training."""

    dataset_args: dict
    model_spec: ModelSpec
    train_cfg: TrainConfig

    def with_seed(self, seed: int) -> "RunSpec":
        """Override the model and optimizer seeds (dataset stays fixed).

        A negative seed raises ParameterError.
        """
        return RunSpec(
            dataset_args=dict(self.dataset_args),
            model_spec=replace(self.model_spec, seed=seed),
            train_cfg=replace(self.train_cfg, seed=seed),
        )


def load_run_spec(path) -> RunSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_run_spec(raw)


def _section(raw: dict, name: str, errors: list[str]) -> dict:
    sec = raw.get(name)
    if sec is None:
        errors.append(f"{name}: missing section")
        return {}
    if not isinstance(sec, dict):
        errors.append(f"{name}: must be an object")
        return {}
    return sec


def _require(sec: dict, section: str, keys: tuple[str, ...], errors: list[str]) -> bool:
    """Report each of ``keys`` missing from ``sec``; True when none is."""
    missing = [key for key in keys if key not in sec]
    errors += [f"{section}.{key}: missing" for key in missing]
    return not missing


def _reject_unknown(sec: dict, section: str, allowed, errors: list[str]):
    for key in sec:
        if key not in allowed:
            errors.append(f"{section}.{key}: unknown key")


def _report(problems: dict[str, str | None], keys, errors: list[str]):
    """Report each problem under its full key: ``keys`` is the section, or maps each field to its key."""
    for name, why in problems.items():
        if why is not None:
            key = keys[name] if isinstance(keys, dict) else f"{keys}.{name}"
            errors.append(f"{key}: {why}")


def _build(cls, sec, section: str, required: tuple[str, ...], errors: list[str]):
    """``cls`` built once from the object ``sec``, or None with its problems reported."""
    if not isinstance(sec, dict):
        errors.append(f"{section}: must be an object")
        return None
    names = {f.name for f in fields(cls)}
    _reject_unknown(sec, section, names, errors)
    if not _require(sec, section, required, errors):
        return None
    try:
        return cls(**{key: value for key, value in sec.items() if key in names})
    except ParameterError as exc:
        _report(exc.fields, section, errors)
        return None


def parse_run_spec(raw: dict) -> RunSpec:
    """Validate a config dict; raises ConfigError listing every problem."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(raw, "config", {"dataset", "model", "train", "compression"}, errors)

    dataset = _section(raw, "dataset", errors)
    model = _section(raw, "model", errors)
    train = _section(raw, "train", errors)
    compression = _section(raw, "compression", errors)

    # make_dataset's rules, each reported only for a key the section has
    problems = dataset_problems(**{key: dataset.get(key) for key in ("kind", "n", "classes", "noise")},
                                seed=dataset.get("seed", 0))
    _reject_unknown(dataset, "dataset", problems, errors)
    _require(dataset, "dataset", ("kind", "n", "classes", "noise"), errors)
    _report({key: why for key, why in problems.items() if key in dataset}, "dataset", errors)

    _reject_unknown(model, "model", {"hidden", "seed"}, errors)
    _require(model, "model", ("hidden",), errors)
    hidden = model.get("hidden")
    if "hidden" in model and not (isinstance(hidden, list) and not any(integer(h, 1) for h in hidden)):
        errors.append("model.hidden: must be a list of positive integers")

    train_cfg = _build(TrainConfig, train, "train", ("epochs",), errors)

    _reject_unknown(compression, "compression", {"mode", "groups", "policy"}, errors)
    _require(compression, "compression", ("mode",), errors)
    mode = compression.get("mode")
    settings = ModelSpec.setting_problems(model.get("seed", 0), mode)
    if "mode" not in compression:
        del settings["attention_mode"]  # reported missing
    _report(settings, _SPEC_KEYS, errors)

    groups_raw = compression.get("groups", {})
    if not isinstance(groups_raw, dict):
        errors.append("compression.groups: must be an object")
        groups_raw = {}
    _reject_unknown(groups_raw, "compression.groups", GROUP_NAMES, errors)
    groups = {name: groups_raw[name] for name in GROUP_NAMES if name in groups_raw}
    for name, entry in groups.items():
        if entry is not None:  # a null group is left uncompressed
            groups[name] = _build(DkmConfig, entry, f"compression.groups.{name}", ("bits", "temperature"), errors)
    policy = None
    if "policy" in compression:
        policy = _build(LayerPolicy, compression["policy"], "compression.policy", (), errors)

    if errors:
        raise ConfigError("invalid config: " + "; ".join(errors))

    layer_dims = (2, *hidden, dataset["classes"])
    layer_count = len(layer_dims) - 1
    schemes: list[DkmConfig | None] = []
    for i in range(layer_count):
        group = "output" if i == layer_count - 1 else "hidden"
        cfg = groups.get(group, groups.get("all"))
        if policy is not None:
            cfg = policy.apply(cfg, i, layer_count, layer_dims[i] * layer_dims[i + 1])
        schemes.append(cfg)
    try:
        model_spec = ModelSpec(layer_dims, tuple(schemes), seed=model.get("seed", 0), attention_mode=mode)
    except DataError as exc:  # layers too small to seed their codebooks
        raise ConfigError(f"invalid config: {exc}") from exc
    dataset_args = {"seed": 0, **dataset, "noise": float(dataset["noise"])}
    return RunSpec(dataset_args=dataset_args, model_spec=model_spec, train_cfg=train_cfg)
