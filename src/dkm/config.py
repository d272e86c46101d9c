"""Run configuration: JSON schema, exhaustive validation, spec assembly.

A run config names the dataset, the MLP shape, the optimizer, and the
per-layer-group clustering schemes ("hidden" covers every layer but the
last, "output" the last one, "all" both). Validation collects every
problem it can find and reports them together, before any work starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .compression import LayerPolicy
from .core import DkmConfig
from .errors import ConfigError, ParameterError
from .harness import ATTENTION_MODES, ModelSpec, TrainConfig

GROUP_NAMES = ("hidden", "output", "all")

_SCHEME_KEYS = {"bits", "dim", "temperature", "epsilon", "max_iterations", "metric", "init"}
_POLICY_KEYS = {"small_layer_threshold", "small_layer_bits", "skip_first", "skip_last"}


@dataclass
class RunSpec:
    """A validated run: everything needed to build data, model, training."""

    dataset_args: dict
    model_spec: ModelSpec
    train_cfg: TrainConfig

    def with_seed(self, seed: int) -> "RunSpec":
        """Override the model and optimizer seeds (dataset stays fixed)."""
        from dataclasses import replace

        return RunSpec(
            dataset_args=dict(self.dataset_args),
            model_spec=replace(self.model_spec, seed=seed),
            train_cfg=replace(self.train_cfg, seed=seed),
        )


def load_run_spec(path) -> RunSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
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


def _require(sec: dict, section: str, key: str, errors: list[str]):
    if key not in sec:
        errors.append(f"{section}.{key}: missing")
        return None
    return sec[key]


def _check_int(value, where: str, low: int, high: int | None, errors: list[str]):
    if isinstance(value, bool) or not isinstance(value, int) or value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        errors.append(f"{where}: must be an integer {span}")


def _reject_unknown(sec: dict, section: str, allowed: set[str], errors: list[str]):
    for key in sec:
        if key not in allowed:
            errors.append(f"{section}.{key}: unknown key")


def _parse_scheme(entry, where: str, errors: list[str]) -> DkmConfig | None:
    if entry is None:
        return None
    if not isinstance(entry, dict):
        errors.append(f"{where}: must be an object or null")
        return None
    _reject_unknown(entry, where, _SCHEME_KEYS, errors)
    if "bits" not in entry:
        errors.append(f"{where}.bits: missing")
        return None
    if "temperature" not in entry:
        errors.append(f"{where}.temperature: missing")
        return None
    try:
        return DkmConfig(**entry)
    except (ParameterError, TypeError) as exc:
        errors.append(f"{where}: {exc}")
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

    for name, sec in (("dataset", dataset), ("model", model), ("train", train)):
        if "seed" in sec:
            _check_int(sec["seed"], f"{name}.seed", 0, None, errors)

    _reject_unknown(dataset, "dataset", {"kind", "n", "classes", "noise", "seed"}, errors)
    kind = _require(dataset, "dataset", "kind", errors)
    n = _require(dataset, "dataset", "n", errors)
    classes = _require(dataset, "dataset", "classes", errors)
    noise = _require(dataset, "dataset", "noise", errors)
    if kind is not None and kind not in ("blobs", "moons"):
        errors.append(f"dataset.kind: must be 'blobs' or 'moons', got {kind!r}")
    if n is not None and (not isinstance(n, int) or n < 1):
        errors.append("dataset.n: must be a positive integer")
    if classes is not None and (not isinstance(classes, int) or classes < 2):
        errors.append("dataset.classes: must be an integer >= 2")
    if noise is not None and (not isinstance(noise, (int, float)) or noise < 0):
        errors.append("dataset.noise: must be a number >= 0")

    _reject_unknown(model, "model", {"hidden", "seed"}, errors)
    hidden = _require(model, "model", "hidden", errors)
    if hidden is not None and (
        not isinstance(hidden, list) or not all(isinstance(h, int) and h >= 1 for h in hidden)
    ):
        errors.append("model.hidden: must be a list of positive integers")

    _reject_unknown(
        train, "train", {"learning_rate", "momentum", "batch_size", "epochs", "seed"}, errors
    )
    _require(train, "train", "epochs", errors)
    for key in ("epochs", "batch_size"):
        if key in train:
            _check_int(train[key], f"train.{key}", 1, None, errors)
    train_cfg = None
    try:
        train_cfg = TrainConfig(**train)
    except (ParameterError, TypeError) as exc:
        errors.append(f"train: {exc}")

    _reject_unknown(compression, "compression", {"mode", "draws", "groups", "policy"}, errors)
    mode = _require(compression, "compression", "mode", errors)
    if mode is not None and mode not in ATTENTION_MODES:
        errors.append(f"compression.mode: must be one of {ATTENTION_MODES}, got {mode!r}")
    draws = compression.get("draws", 1)
    if not isinstance(draws, int) or draws < 1:
        errors.append("compression.draws: must be a positive integer")
        draws = 1

    groups_raw = compression.get("groups", {})
    groups: dict[str, DkmConfig | None] = {}
    if not isinstance(groups_raw, dict):
        errors.append("compression.groups: must be an object")
        groups_raw = {}
    _reject_unknown(groups_raw, "compression.groups", set(GROUP_NAMES), errors)
    for name in GROUP_NAMES:
        if name in groups_raw:
            groups[name] = _parse_scheme(groups_raw[name], f"compression.groups.{name}", errors)

    policy = None
    if "policy" in compression:
        pol = compression["policy"]
        if not isinstance(pol, dict):
            errors.append("compression.policy: must be an object")
        else:
            _reject_unknown(pol, "compression.policy", _POLICY_KEYS, errors)
            if "small_layer_threshold" in pol:
                _check_int(pol["small_layer_threshold"], "compression.policy.small_layer_threshold", 0, None, errors)
            if "small_layer_bits" in pol:
                _check_int(pol["small_layer_bits"], "compression.policy.small_layer_bits", 1, 16, errors)
            for key in ("skip_first", "skip_last"):
                if not isinstance(pol.get(key, False), bool):
                    errors.append(f"compression.policy.{key}: must be true or false")
            try:
                policy = LayerPolicy(**pol)
            except TypeError as exc:
                errors.append(f"compression.policy: {exc}")

    if errors:
        raise ConfigError("invalid config: " + "; ".join(errors))

    layer_dims = tuple([2] + list(hidden) + [classes])
    schemes: list[DkmConfig | None] = []
    layer_count = len(layer_dims) - 1
    for i in range(layer_count):
        group = "output" if i == layer_count - 1 else "hidden"
        cfg = groups.get(group, groups.get("all"))
        if policy is not None:
            params = layer_dims[i] * layer_dims[i + 1]
            cfg = policy.apply(cfg, i, layer_count, params)
        schemes.append(cfg)

    # feasibility: enough sub-vectors to seed every cluster
    for i, cfg in enumerate(schemes):
        if cfg is None:
            continue
        n_params = layer_dims[i] * layer_dims[i + 1]
        count = (n_params + (-n_params) % cfg.dim) // cfg.dim
        if count < cfg.clusters:
            errors.append(
                f"layer {i}: {count} sub-vectors cannot seed {cfg.clusters} clusters "
                f"(bits={cfg.bits}, dim={cfg.dim})"
            )
    if errors:
        raise ConfigError("invalid config: " + "; ".join(errors))

    model_spec = ModelSpec(
        layer_dims=layer_dims,
        schemes=tuple(schemes),
        seed=model.get("seed", 0),
        attention_mode=mode,
        draws=draws,
    )
    dataset_args = dict(
        kind=kind, n=n, classes=classes, noise=float(noise), seed=dataset.get("seed", 0)
    )
    return RunSpec(dataset_args=dataset_args, model_spec=model_spec, train_cfg=train_cfg)
