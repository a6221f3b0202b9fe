"""Experiment registry: one uniform contract for every table/figure.

Each experiment module in :mod:`repro.experiments` registers an
:class:`Experiment` subclass under the paper-artefact name it reproduces
(``@register("table2")``).  The contract is uniform:

* ``run(config) -> Result`` — regenerate the artefact; ``config`` is a
  plain mapping of keyword overrides for the underlying sweep;
* ``render(result) -> str`` — the text table the paper reports;
* ``to_dict(result)`` / ``from_dict(payload)`` — a JSON-safe round trip
  (``render(from_dict(json.loads(json.dumps(to_dict(r)))))`` is identical
  to ``render(r)``), which is what ``repro run <name> --json out.json``
  writes and what downstream tooling parses.

The registry is what the ``python -m repro`` CLI, the ``examples/`` scripts
and the ``benchmarks/`` tree enumerate — adding a new table/figure is one
``@register`` class, with no CLI or harness changes.
"""

from __future__ import annotations

import dataclasses
import difflib
from typing import Any, Callable, ClassVar, Dict, List, Mapping, Optional, Type, Union

import numpy as np

from repro.quant.precision import PrecisionConfig

__all__ = [
    "Experiment",
    "UnknownExperimentError",
    "experiment_names",
    "get_experiment",
    "iter_experiments",
    "register",
]

#: name -> registered experiment instance (experiments are stateless).
_REGISTRY: Dict[str, "Experiment"] = {}


class UnknownExperimentError(KeyError):
    """An unknown experiment name, with a "did you mean" suggestion."""

    def __init__(self, name: str) -> None:
        valid = sorted(_REGISTRY)
        close = difflib.get_close_matches(name, valid, n=1, cutoff=0.5)
        hint = f" — did you mean {close[0]!r}?" if close else ""
        super().__init__(
            f"unknown experiment {name!r}{hint} "
            f"(run 'repro list' to see all: {', '.join(valid)})"
        )
        self.name = name
        self.suggestion = close[0] if close else None

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


# --------------------------------------------------------------------------- #
# JSON-safe value encoding                                                     #
# --------------------------------------------------------------------------- #
_PRECISION_TAG = "__precision__"


def _encode_value(value: Any) -> Any:
    """Encode one result field into JSON-safe plain data."""
    if isinstance(value, PrecisionConfig):
        return {
            _PRECISION_TAG: [
                value.input_bits,
                value.vcorr_delta,
                value.sum_extra_bits,
            ]
        }
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): _encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _encode_row(value)
    return value


def _decode_value(value: Any) -> Any:
    """Invert :func:`_encode_value` (tag-driven; nesting handled)."""
    if isinstance(value, Mapping):
        if _PRECISION_TAG in value:
            m, delta, n = value[_PRECISION_TAG]
            return PrecisionConfig(int(m), int(delta), int(n))
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def _encode_row(row: Any) -> Dict[str, Any]:
    """One result row (a dataclass or a plain mapping) -> JSON-safe dict."""
    if dataclasses.is_dataclass(row) and not isinstance(row, type):
        return {
            f.name: _encode_value(getattr(row, f.name))
            for f in dataclasses.fields(row)
        }
    if isinstance(row, Mapping):
        return {str(k): _encode_value(v) for k, v in row.items()}
    raise TypeError(
        f"cannot encode result row of type {type(row).__name__}; "
        "override to_dict/from_dict for non-dataclass results"
    )


def _decode_row(row_type: Optional[type], payload: Mapping[str, Any]) -> Any:
    decoded = {k: _decode_value(v) for k, v in payload.items()}
    if row_type is None:
        return decoded
    return row_type(**decoded)


# --------------------------------------------------------------------------- #
# The contract                                                                 #
# --------------------------------------------------------------------------- #
class Experiment:
    """Base class of every registered experiment.

    Class attributes
    ----------------
    name:
        Registry name (set by :func:`register`).
    title:
        Paper artefact, e.g. ``"Table II"`` (used by ``repro list``).
    description:
        One-line summary for listings.
    row_type:
        Dataclass type of one result row (``None`` when rows are plain
        dicts); drives the default ``to_dict`` / ``from_dict``.
    scalar_result:
        ``True`` when ``run`` returns one row rather than a list of rows.
    fast_config:
        Reduced-size config used by smoke tests and ``repro run --fast``.
    backend_config_key:
        Config key the CLI's ``--backend`` maps onto (``None`` when the
        experiment has no softmax backend switch); the value is a softmax
        backend name validated by
        :func:`repro.runtime.backend.canonical_backend_name`.
    supports_workers:
        Whether the experiment's ``run()`` accepts a ``workers`` config key
        (a process-pool fan-out over independent configurations); gates the
        CLI's ``--workers`` flag so unsupported experiments fail with a
        clean error instead of a ``TypeError`` deep inside ``run()``.
    """

    name: ClassVar[str] = ""
    title: ClassVar[str] = ""
    description: ClassVar[str] = ""
    row_type: ClassVar[Optional[type]] = None
    scalar_result: ClassVar[bool] = False
    fast_config: ClassVar[Mapping[str, Any]] = {}
    backend_config_key: ClassVar[Optional[str]] = None
    supports_workers: ClassVar[bool] = False

    # -- to be implemented by subclasses -------------------------------- #
    def run(self, config: Optional[Mapping[str, Any]] = None) -> Any:
        raise NotImplementedError

    def render(self, result: Any) -> str:
        raise NotImplementedError

    # -- default JSON round trip ---------------------------------------- #
    def to_dict(self, result: Any) -> Dict[str, Any]:
        """Serialise a ``run()`` result into JSON-safe plain data."""
        if self.scalar_result:
            return {"experiment": self.name, "result": _encode_row(result)}
        return {
            "experiment": self.name,
            "rows": [_encode_row(row) for row in result],
        }

    def from_dict(self, payload: Mapping[str, Any]) -> Any:
        """Rebuild a ``run()``-shaped result from :meth:`to_dict` data."""
        if self.scalar_result:
            return _decode_row(self.row_type, payload["result"])
        return [_decode_row(self.row_type, row) for row in payload["rows"]]

    # -- shared helper --------------------------------------------------- #
    @staticmethod
    def _config_kwargs(config: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
        return dict(config) if config else {}


def register(
    name: Union[str, Type[Experiment]]
) -> Union[Type[Experiment], Callable[[Type[Experiment]], Type[Experiment]]]:
    """Class decorator registering an :class:`Experiment` by name.

    Usable as ``@register`` (uses ``cls.name``) or ``@register("table2")``.
    """

    def _register(cls: Type[Experiment], registry_name: str) -> Type[Experiment]:
        if not registry_name:
            raise ValueError(f"{cls.__name__} has no registry name")
        if registry_name in _REGISTRY and not isinstance(
            _REGISTRY[registry_name], cls
        ):
            raise ValueError(f"experiment {registry_name!r} is already registered")
        cls.name = registry_name
        _REGISTRY[registry_name] = cls()
        return cls

    if isinstance(name, str):
        return lambda cls: _register(cls, name)
    return _register(name, name.name)


def _ensure_loaded() -> None:
    """Import the experiment package so its modules self-register."""
    import repro.experiments  # noqa: F401  (import triggers @register calls)


def experiment_names() -> List[str]:
    """All registered experiment names, in registration order."""
    _ensure_loaded()
    return list(_REGISTRY)


def iter_experiments() -> List[Experiment]:
    """All registered experiment instances, in registration order."""
    _ensure_loaded()
    return list(_REGISTRY.values())


def get_experiment(name: str) -> Experiment:
    """Look an experiment up by name (with a "did you mean" on a miss)."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownExperimentError(name) from None
