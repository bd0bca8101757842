"""JSON configuration document: schema validation, defaults, typed accessors.

Validation collects every violation instead of stopping at the first, and
rejects unknown keys at any nesting level. A section's defaults are those
of the dataclass it builds, and its keys and ranges are those of the
dataclass's RULES table, which its __post_init__ also runs. An absent or
invalid key leaves the dataclass default in place.
The shipped reference config spells out every default explicitly and
doubles as the schema's documentation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Sequence

from .classifier import TrainConfig
from .core import APPS, COUNT, MAX_MS, POSITIVE, DeviceProfile, FieldError, Label, Rule, check_fields, is_int
from .core import num, parse_label
from .dataio import LabelSignalModel
from .firmware import EnergySettings
from .netproto import KEY_LEN, ChannelModel, RetryPolicy
from .pipeline import MIN_WINDOW


class ConfigError(ValueError):
    """Invalid configuration; .errors lists every violation found."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class PipelineSettings:
    window: int = 128
    overlap: float = 0.5

    RULES = {"window": num(lo=MIN_WINDOW, integer=True), "overlap": num(lo=0.0, hi=0.999)}

    def __post_init__(self) -> None:
        check_fields(self)


def _key(v):
    if isinstance(v, bytes) and len(v) == KEY_LEN:
        return v
    raise ValueError(f"must encode exactly {KEY_LEN} bytes")


@dataclass(frozen=True)
class ProtocolSettings:
    key: bytes = bytes(range(KEY_LEN))  # the key "key_hex" of a config document, as hex text
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    sync_interval_ms: int = 21_600_000
    sync_timeout_ms: int = 1000
    sync_retries: int = 3

    RULES = {
        "key": _key,
        "sync_interval_ms": num(lo=0, integer=True),
        "sync_timeout_ms": num(lo=1, hi=2**32 - 1, integer=True),  # a reply counts only before it: rtt_ms fits u32
        "sync_retries": COUNT,
    }

    def __post_init__(self) -> None:
        check_fields(self)


def _bool(v):
    if isinstance(v, bool):
        return v
    raise ValueError("expected true/false")


def _str(v):
    if isinstance(v, str):
        return v
    raise ValueError("expected a string")


def _app(v):
    if _str(v) in APPS:
        return v
    raise ValueError(f"must be one of {sorted(APPS)}")


def _label_names(v):
    if isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v):
        return tuple(parse_label(x).name for x in v)  # each names a label of some app
    raise ValueError("expected a list of label names")


def _schedule(v):  # _block_ms checks each block
    if isinstance(v, (list, tuple)) and v:
        return v
    raise ValueError("expected a non-empty list of [label, duration_ms] pairs")


def _block_ms(v):
    if is_int(v) and v > 0:
        return v
    raise ValueError("duration_ms must be a positive integer")


def _alert_ms(v):
    if not is_int(v):
        raise ValueError("expected [t_ms, label]")
    if v < 0:
        raise ValueError("t_ms must be >= 0")
    return v


UNKNOWN_LABEL = "unknown label {!r} for this application"


def _check_schedule(app: str, key: str, rule: Rule, entries) -> None:
    """FieldError at key[j] for the first (label, value) entry j whose value breaks rule or whose
    label is not one of app's: the rule of a schedule, DeviceSpec's or SyntheticSpec's."""
    for j, (label, value) in enumerate(entries):
        try:
            rule(value)
            if not isinstance(label, APPS[app]):
                raise ValueError(UNKNOWN_LABEL.format(getattr(label, "name", label)))
        except ValueError as exc:
            raise FieldError(f"{key}[{j}]", str(exc)) from None


def _unmodeled(schedule, signals: dict[Label, LabelSignalModel]) -> str | None:
    """Why a schedule cannot be synthesized from signals, or None if it can."""
    missing = sorted({label.name for label, _ in schedule if label not in signals})
    return f"labels without signal models: {missing}" if missing else None


@dataclass(frozen=True)
class SyntheticSpec:
    """Per-app synthetic corpus description: label models plus a schedule. Rules across fields: there
    is at least one label, each one of the app's, no two share a signal signature, and stretch is on
    all or none, else FieldError at signals; each schedule block lasts > 0 ms and names a label of the
    app, as a DeviceSpec's does, else FieldError at schedule[j]; each has a signal model, else
    FieldError at schedule."""

    app: str
    signals: dict[Label, LabelSignalModel]
    schedule: tuple[tuple[Label, int], ...]
    repeat: int = 1

    RULES = {"app": _app, "schedule": _schedule, "repeat": COUNT}

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.signals:
            raise FieldError("signals", "synthetic model needs at least one label")
        seen: dict[tuple, Label] = {}
        for label, sig in self.signals.items():
            if not isinstance(label, APPS[self.app]):
                raise FieldError("signals", UNKNOWN_LABEL.format(label.name))
            if (key := sig.signature()) in seen:
                raise FieldError("signals", f"labels {seen[key].name} and {label.name} share signal signature {key}")
            seen[key] = label
        if len({sig.stretch_base is None for sig in self.signals.values()}) > 1:
            raise FieldError("signals", "stretch channel must be present for all labels or none")
        _check_schedule(self.app, "schedule", _block_ms, self.schedule)
        if reason := _unmodeled(self.schedule, self.signals):
            raise FieldError("schedule", reason)

    def full_schedule(self) -> list[tuple[Label, int]]:
        return list(self.schedule) * self.repeat


@dataclass(frozen=True)
class DeviceSpec:
    """A simulated device. Rule across fields: each label is one of its app's, else FieldError at
    schedule[j] or alert_schedule[j]."""

    device_id: int
    schedule: tuple[tuple[Label, int], ...]
    app: str = "har"
    clock_offset_ms: int = 0
    alert_schedule: tuple[tuple[int, Label], ...] = ()

    RULES = {
        "device_id": num(lo=0, hi=0xFFFF, integer=True),  # the key "id" of a config document
        "schedule": _schedule,
        "app": _app,
        "clock_offset_ms": num(hi=MAX_MS, integer=True),  # the device clock is never below 0
    }

    def __post_init__(self) -> None:
        check_fields(self)
        _check_schedule(self.app, "schedule", _block_ms, self.schedule)
        _check_schedule(self.app, "alert_schedule", _alert_ms, [(label, t) for t, label in self.alert_schedule])


def _duplicate_id(devices: Sequence[DeviceSpec]) -> str | None:
    """Why the last of devices is refused, if an earlier device has its id."""
    if devices[-1].device_id in {spec.device_id for spec in devices[:-1]}:
        return f"duplicate device id {devices[-1].device_id}"
    return None


@dataclass(frozen=True)
class ScenarioSettings:
    """The simulated run. Rule across fields: device ids are unique, else FieldError at devices[i].id."""

    duration_ms: int = 3_600_000
    devices: tuple[DeviceSpec, ...] = ()
    report_every_n_windows: int = 1
    idle_timeout_ms: int = 3000
    inference_latency_ms: int = 5
    tx_bitrate_kbps: float = 250.0
    alert_labels: tuple[str, ...] = ()
    use_duty_plan: bool = False
    energy_log_interval_ms: int = 3_600_000
    model_path: str | None = None

    RULES = {
        "duration_ms": num(lo=1, hi=MAX_MS, integer=True),
        "report_every_n_windows": COUNT,
        "idle_timeout_ms": num(lo=0, integer=True),
        "inference_latency_ms": COUNT,
        "tx_bitrate_kbps": POSITIVE,
        "alert_labels": _label_names,
        "use_duty_plan": _bool,
        "energy_log_interval_ms": COUNT,
        "model_path": _str,
    }

    def __post_init__(self) -> None:
        check_fields(self)
        for i in range(len(self.devices)):
            if reason := _duplicate_id(self.devices[: i + 1]):
                raise FieldError(f"devices[{i}].id", reason)


@dataclass(frozen=True)
class Config:
    profile: DeviceProfile = field(default_factory=DeviceProfile)
    pipeline: PipelineSettings = field(default_factory=PipelineSettings)
    train: TrainConfig = field(default_factory=TrainConfig)
    synthetic: dict[str, SyntheticSpec] = field(default_factory=dict)
    energy: EnergySettings = field(default_factory=EnergySettings)
    channel: ChannelModel = field(default_factory=ChannelModel)
    protocol: ProtocolSettings = field(default_factory=ProtocolSettings)
    scenario: ScenarioSettings | None = None


class _Ctx:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def error(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def check(self, path: str, rule: Rule, value: Any) -> Any:
        """rule(value), or None after the rule's reason is recorded as an error at path."""
        try:
            return rule(value)
        except ValueError as exc:
            self.error(path, str(exc))
            return None


def _check_keys(obj: dict, allowed: Sequence[str], path: str, ctx: _Ctx) -> None:
    for key in obj:
        if key not in allowed:
            ctx.error(f"{path}.{key}" if path else key, "unknown key")


def _fields(obj: dict, cls: type, path: str, ctx: _Ctx, rules: dict[str, Rule], extra: Sequence[str] = ()) -> dict:
    """Keyword arguments for cls from the keys of obj that pass their rule.

    The allowed keys are the rule keys plus extra (parsed by the caller).
    An absent or invalid key is left out so that cls's default applies,
    and so is a null for a field whose default is None.
    """
    _check_keys(obj, [*rules, *extra], path, ctx)
    skip_null = {f.name for f in fields(cls) if f.default is None}
    kwargs = {}
    for key, rule in rules.items():
        if key in obj and not (obj[key] is None and key in skip_null):
            kwargs[key] = ctx.check(f"{path}.{key}", rule, obj[key])
    return {key: value for key, value in kwargs.items() if value is not None}


def _settings(obj: dict, cls: type, path: str, ctx: _Ctx):
    """cls built from the keys of obj that pass their rule (see _fields).

    A rule across fields that cls itself checks, such as the initial
    battery level not exceeding the capacity, raises FieldError: it is
    reported at that field's key and cls's defaults apply.
    """
    try:
        return cls(**_fields(obj, cls, path, ctx, cls.RULES))
    except FieldError as exc:
        ctx.error(f"{path}.{exc.field}", exc.reason)
        return cls()


def _parse_label(name: Any, label_set: type, path: str, ctx: _Ctx) -> Label | None:
    if not isinstance(name, str):
        ctx.error(path, "expected a label name string")
        return None
    try:
        return label_set[name]
    except KeyError:
        ctx.error(path, UNKNOWN_LABEL.format(name))
        return None


def _parse_synthetic_app(app: str, obj: Any, ctx: _Ctx) -> SyntheticSpec | None:
    path = f"synthetic_models.{app}"
    if not isinstance(obj, dict):
        ctx.error(path, "expected an object")
        return None
    rules = {key: rule for key, rule in SyntheticSpec.RULES.items() if key not in ("app", "schedule")}
    kwargs = _fields(obj, SyntheticSpec, path, ctx, rules, extra=("labels", "schedule"))
    label_set = APPS[app]
    labels_obj = obj.get("labels")
    if not isinstance(labels_obj, dict) or not labels_obj:
        ctx.error(f"{path}.labels", "expected a non-empty label map")
        return None
    signals: dict[Label, LabelSignalModel] = {}
    for name, params in labels_obj.items():
        ppath = f"{path}.labels.{name}"
        label = _parse_label(name, label_set, ppath, ctx)
        if not isinstance(params, dict):
            ctx.error(ppath, "expected a parameter object")
        elif label is not None:
            if "orientation" not in params:
                ctx.error(f"{ppath}.orientation", "expected a 3-number list")
            signals[label] = _settings(params, LabelSignalModel, ppath, ctx)
    schedule = _parse_schedule(obj.get("schedule"), label_set, f"{path}.schedule", ctx)
    if not signals or schedule is None:
        return None
    if reason := _unmodeled(schedule, signals):
        ctx.error(f"{path}.schedule", reason)
        return None
    try:
        return SyntheticSpec(app=app, signals=signals, schedule=tuple(schedule), **kwargs)
    except FieldError as exc:  # at signals, the rule across the labels
        ctx.error(f"{path}.labels", exc.reason)
        return None


def _parse_schedule(raw: Any, label_set: type, path: str, ctx: _Ctx):
    if ctx.check(path, _schedule, raw) is None:
        return None
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != 2:
            ctx.error(f"{path}[{i}]", "expected [label, duration_ms]")
            continue
        label = _parse_label(entry[0], label_set, f"{path}[{i}]", ctx)
        if label is not None and ctx.check(f"{path}[{i}]", _block_ms, entry[1]) is not None:
            out.append((label, entry[1]))
    return out if out else None


def _key_hex(v):
    if not isinstance(v, str):
        raise ValueError("expected a hex string")
    try:
        key = bytes.fromhex(v)
    except ValueError:
        raise ValueError("not valid hex") from None
    return _key(key)


def _parse_protocol(obj: dict, ctx: _Ctx) -> ProtocolSettings:
    path = "protocol"
    rules = {key: rule for key, rule in ProtocolSettings.RULES.items() if key != "key"}
    rules["key_hex"] = _key_hex
    kwargs = _fields(obj, ProtocolSettings, path, ctx, rules, extra=("retry",))
    if "key_hex" in kwargs:
        kwargs["key"] = kwargs.pop("key_hex")
    if "retry" in obj:
        if isinstance(obj["retry"], dict):
            kwargs["retry"] = _settings(obj["retry"], RetryPolicy, f"{path}.retry", ctx)
        else:
            ctx.error(f"{path}.retry", "expected an object")
    return ProtocolSettings(**kwargs)


def _parse_device(obj: Any, index: int, synthetic: dict[str, SyntheticSpec], ctx: _Ctx) -> DeviceSpec | None:
    """The device, None without a valid id and schedule; an absent id is its 1-based position."""
    path = f"scenario.devices[{index}]"
    if not isinstance(obj, dict):
        ctx.error(path, "expected an object")
        return None
    rules = {"id" if key == "device_id" else key: rule for key, rule in DeviceSpec.RULES.items() if key != "schedule"}
    kwargs = _fields({"id": index + 1, **obj}, DeviceSpec, path, ctx, rules, extra=("schedule", "alert_schedule"))
    app = kwargs.get("app", DeviceSpec.app)
    label_set = APPS[app]
    schedule = None
    if "schedule" in obj:
        schedule = _parse_schedule(obj["schedule"], label_set, f"{path}.schedule", ctx)
    elif app in synthetic:
        schedule = synthetic[app].full_schedule()
    else:
        ctx.error(f"{path}.schedule", f"no schedule given and no synthetic_models.{app} to fall back on")
    raw_alerts = obj.get("alert_schedule", [])
    if not isinstance(raw_alerts, list):
        ctx.error(f"{path}.alert_schedule", "expected a list of [t_ms, label] pairs")
    else:
        alerts = []
        for i, entry in enumerate(raw_alerts):
            t_ms = entry[0] if isinstance(entry, list) and len(entry) == 2 else None  # None: not [t_ms, label]
            if ctx.check(f"{path}.alert_schedule[{i}]", _alert_ms, t_ms) is not None:
                label = _parse_label(entry[1], label_set, f"{path}.alert_schedule[{i}]", ctx)
                if label is not None:
                    alerts.append((t_ms, label))
        kwargs["alert_schedule"] = tuple(alerts)
    if "id" not in kwargs or not schedule:
        return None
    return DeviceSpec(kwargs.pop("id"), tuple(schedule), **kwargs)


def _parse_scenario(obj: dict, synthetic: dict[str, SyntheticSpec], ctx: _Ctx) -> ScenarioSettings | None:
    """The scenario section; None if the document has errors, in any section."""
    path = "scenario"
    kwargs = _fields(obj, ScenarioSettings, path, ctx, ScenarioSettings.RULES, extra=("devices",))
    raw_devices = obj.get("devices")
    if not isinstance(raw_devices, list) or not raw_devices:
        ctx.error(f"{path}.devices", "expected a non-empty device list")
    else:
        devices = []
        for i, d in enumerate(raw_devices):
            spec = _parse_device(d, i, synthetic, ctx)
            if spec is not None:
                devices.append(spec)
                if reason := _duplicate_id(devices):
                    ctx.error(f"{path}.devices[{i}].id", reason)
        kwargs["devices"] = tuple(devices)
    return None if ctx.errors else ScenarioSettings(**kwargs)


TOP_LEVEL_SECTIONS = [
    "device_profile", "pipeline", "train", "synthetic_models",
    "energy", "channel", "protocol", "scenario",
]


def parse_config(raw: Any) -> Config:
    """Validate a parsed JSON document; raises ConfigError listing every problem, or, once every
    section is valid, every break of scenario_errors' rules across sections."""
    ctx = _Ctx()
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    _check_keys(raw, TOP_LEVEL_SECTIONS, "", ctx)

    def section(name: str) -> dict:
        v = raw.get(name, {})
        if not isinstance(v, dict):
            ctx.error(name, "expected an object")
            return {}
        return v

    profile = _settings(section("device_profile"), DeviceProfile, "device_profile", ctx)
    pipeline = _settings(section("pipeline"), PipelineSettings, "pipeline", ctx)
    train = _settings(section("train"), TrainConfig, "train", ctx)

    synthetic: dict[str, SyntheticSpec] = {}
    syn_obj = section("synthetic_models")
    _check_keys(syn_obj, APPS, "synthetic_models", ctx)
    for app in APPS:
        spec = _parse_synthetic_app(app, syn_obj[app], ctx) if app in syn_obj else None
        if spec is not None:
            synthetic[app] = spec

    energy = _settings(section("energy"), EnergySettings, "energy", ctx)
    channel = _settings(section("channel"), ChannelModel, "channel", ctx)
    protocol = _parse_protocol(section("protocol"), ctx)
    scenario = None
    if "scenario" in raw:
        scenario = _parse_scenario(section("scenario"), synthetic, ctx)

    if ctx.errors:
        raise ConfigError(ctx.errors)
    config = Config(
        profile=profile,
        pipeline=pipeline,
        train=train,
        synthetic=synthetic,
        energy=energy,
        channel=channel,
        protocol=protocol,
        scenario=scenario,
    )
    if scenario is not None and "synthetic_models" in raw and (errors := scenario_errors(config)):
        raise ConfigError(errors)
    return config


def scenario_errors(config: Config) -> list[str]:
    """The scenario rules that span sections: each device's app has a synthetic_models section, which
    models every label of the device's schedule. parse_config checks them once every section is valid,
    if the document has a synthetic_models section; simengine.scenario_lines checks them before a run."""
    errors = []
    for i, spec in enumerate(config.scenario.devices):
        synthetic = config.synthetic.get(spec.app)
        if synthetic is None:
            errors.append(f"scenario.devices[{i}].app: no synthetic_models.{spec.app} section to synthesize its signals from")
        elif reason := _unmodeled(spec.schedule, synthetic.signals):
            errors.append(f"scenario.devices[{i}].schedule: {reason}")
    return errors


def load_config(path: str | Path) -> Config:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc.strerror}"]) from None
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config file {path} is not UTF-8 text (byte {exc.start})"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON in {path}: {exc}"]) from None
    return parse_config(raw)
