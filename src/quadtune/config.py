"""Run configuration: one JSON document describing dataset, model, optimizer, lr policy."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from .datasets import DATASETS
from .errors import ConfigError
from .runner import MODELS, OPTIMIZERS, SCHEDULES


@dataclass
class RunConfig:
    dataset: dict[str, Any]
    model: dict[str, Any]
    optimizer: dict[str, Any]
    lr_policy: dict[str, Any]
    epochs: int
    seeds: list[int]
    out_dir: str = "runs"
    eval_every: Optional[int] = None

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "RunConfig":
        for key in ("dataset", "model", "optimizer", "lr_policy", "epochs", "seeds"):
            if key not in raw:
                raise ConfigError(f"missing required config key {key!r}")
        dataset = dict(raw["dataset"])
        model = dict(raw["model"])
        optimizer = dict(raw["optimizer"])
        policy = dict(raw["lr_policy"])

        for family, spec, table in (
            ("dataset", dataset, DATASETS),
            ("model", model, MODELS),
            ("optimizer", optimizer, OPTIMIZERS),
        ):
            if spec.get("kind") not in table:
                raise ConfigError(f"unknown {family} kind {spec.get('kind')!r}")
        if policy.get("kind") not in ("tuner", "schedule"):
            raise ConfigError("lr_policy.kind must be 'tuner' or 'schedule'")
        if policy["kind"] == "schedule" and policy.get("variant") not in SCHEDULES:
            raise ConfigError(f"unknown schedule variant {policy.get('variant')!r}")

        epochs = raw["epochs"]
        if not isinstance(epochs, int) or epochs < 1:
            raise ConfigError("epochs must be a positive integer")
        seeds = raw["seeds"]
        if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
            raise ConfigError("seeds must be a non-empty list of integers")
        eval_every = raw.get("eval_every")
        if eval_every is not None and (not isinstance(eval_every, int) or eval_every < 1):
            raise ConfigError("eval_every must be a positive integer or null")

        return cls(
            dataset=dataset,
            model=model,
            optimizer=optimizer,
            lr_policy=policy,
            epochs=epochs,
            seeds=list(seeds),
            out_dir=str(raw.get("out_dir", "runs")),
            eval_every=eval_every,
        )

    @classmethod
    def from_json_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict[str, Any]:
        return {
            "dataset": dict(self.dataset),
            "model": dict(self.model),
            "optimizer": dict(self.optimizer),
            "lr_policy": dict(self.lr_policy),
            "epochs": self.epochs,
            "seeds": list(self.seeds),
            "out_dir": self.out_dir,
            "eval_every": self.eval_every,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
