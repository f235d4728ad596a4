"""Run configuration: one JSON document describing dataset, model, optimizer, lr policy."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Optional

from .datasets import DATASETS, kind_args, spec_args
from .errors import InvalidArgumentError
from .runner import MODELS, optimizer_args, policy_args

# 2**800 has 241 decimal digits, so trace_seed<N>.csv fits a 255-byte file name.
SEED_BITS = 800


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
        """Check every key against the maps the builders read, before anything is built."""
        keys = {"dataset": dict, "model": dict, "optimizer": dict, "lr_policy": dict, "epochs": int,
                "seeds": [int], "out_dir": str, "eval_every": int}
        args = spec_args("config", raw, (cls, keys))
        if args["epochs"] < 1:
            raise InvalidArgumentError("epochs must be a positive integer")
        seeds = args["seeds"]
        if any(seed.bit_length() > SEED_BITS for seed in seeds):
            raise InvalidArgumentError(f"seeds must be below 2**{SEED_BITS}, so that trace_seed<N>.csv is a valid file name")
        if not seeds or min(seeds) < 0 or len(set(seeds)) != len(seeds):
            raise InvalidArgumentError(f"seeds must be a non-empty list of distinct non-negative integers, not {list(seeds)}")
        if args.get("eval_every") is not None and args["eval_every"] < 1:
            raise InvalidArgumentError("eval_every must be a positive integer or null")
        kind_args("dataset", args["dataset"], DATASETS)
        kind_args("model", args["model"], MODELS)
        optimizer_args(args["optimizer"])
        policy_args(args["lr_policy"])
        if args["lr_policy"].get("momentum_range") is not None and args["optimizer"]["kind"] != "momentum":
            raise InvalidArgumentError("momentum_range needs the momentum optimizer")
        return cls(**dict(args, seeds=list(seeds)))

    @classmethod
    def from_json_file(cls, path: str, **overrides) -> "RunConfig":
        """The config in a JSON file, with ``overrides`` replacing its top-level keys before the check."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise InvalidArgumentError(f"cannot read config {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        except ValueError as exc:  # an integer too long to convert
            raise InvalidArgumentError(f"{path}: {exc}") from exc
        return cls.from_dict(dict(raw, **overrides) if type(raw) is dict else raw)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)
