"""Flat sectioned key=value run configuration.

The format is deliberately small: ``[section]`` headers, ``key = value``
entries, ``#`` or ``;`` comments.  Unknown sections or keys, model keys
that the model's kind does not use and a ``constants.n`` other than the
model's dimension are hard errors with the offending line number, because
silent config drift would invalidate inequality verdicts.  List-valued keys
(brackets, factors, values) take semicolon-separated entries and may be
repeated to accumulate.

``_SCHEMA`` is the one list of settings, and its converters the only code
that reads a setting's text; ``RunConfig``'s slots and construction derive
from it, except the composites ``model_spec``, ``flow`` and ``primitives``.

Overrides of the form ``section.key=value``, then the CLI flags that stand
for one key each, are applied after the file parses and validated against
the same schema.
"""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path

from .constants import ConstantPrimitives
from .flow import FlowConfig
from .sobolev import FAMILY_NAMES, GallotConstant

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_text"]


class ConfigError(ValueError):
    def __init__(self, message: str, source: str = "<config>", line: int | None = None):
        self.source = source
        self.line = line
        where = f"{source}:{line}: " if line is not None else f"{source}: "
        super().__init__(where + message)


_Field = namedtuple("_Field", (
    "convert",    # callable: the value of a setting's text; ValueError if malformed
    "default",    # object
    "choices",    # tuple[str, ...]: the values convert may return, if any
    "listlike",   # bool
    "attr",       # str | None: RunConfig attribute of a plain key
    "bound",      # str | None: "positive" or "nonnegative", checked with finiteness
), defaults=(None, (), False, None, None))


def _optfloat(text: str) -> float | None:
    return None if text.lower() in ("auto", "none") else float(text)


def _posint(text: str) -> int:
    val = int(text)
    if val < 1:
        raise ValueError(f"must be >= 1, got {val}")
    return val


def _entries(text: str) -> tuple[tuple[str, ...], ...]:
    """Entries separated by ";" or ",", each split into its tokens."""
    return tuple(tuple(chunk.split()) for chunk in text.replace(",", ";").split(";")
                 if chunk.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(chunk) for chunk in text.replace(",", " ").replace(";", " ").split())


_BOUNDS = {"positive": ("positive and finite", lambda v: 0.0 < v < math.inf),
           "nonnegative": ("finite and >= 0", lambda v: 0.0 <= v < math.inf)}

_SCHEMA: dict[str, dict[str, _Field]] = {
    "model": {
        "kind": _Field(str.strip, None, ("lie_group_quotient", "product_of_space_forms")),
        "dim": _Field(int, None),
        "covolume": _Field(float, 1.0),
        "brackets": _Field(_entries, (), listlike=True),
        "factors": _Field(_entries, (), listlike=True),
    },
    "flow": {
        "gamma": _Field(float, 1.0),
        "t_end": _Field(_optfloat, None),
        "rel_tol": _Field(float, 1e-9),
        "abs_tol": _Field(float, 1e-12),
        "max_rm": _Field(_optfloat, None),
        "record_every": _Field(_optfloat, None),
        "cs0": _Field(float, 1.0),
    },
    "constants": {
        "n": _Field(int, None, attr="constants_n"),
        "c_n": _Field(float, 1.0),
        "a_n": _Field(float, 1.0),
        "c3": _Field(float, 1.0),
        "gallot_c0": _Field(float, 1.0),
        "gallot_growth": _Field(str.strip, "exp_sqrt", ("constant", "exp_sqrt")),
        "gromov_ruh_eps": _Field(float, 1.0),
        "vol0": _Field(float, 1.0, attr="vol0", bound="positive"),
        "rm_n2_0": _Field(float, 0.0, attr="rm_n2_0", bound="nonnegative"),
        "t_prime": _Field(float, 1.0, attr="t_prime", bound="positive"),
        "moser_k": _Field(_posint, 64, attr="moser_k"),
    },
    "sobolev": {
        "family": _Field(str.strip, "eigenfunction", FAMILY_NAMES, attr="family"),
        "a_const": _Field(float, 1.0, attr="a_const", bound="positive"),
        "b_const": _Field(float, 1.0, attr="b_const", bound="positive"),
        "kappa": _Field(float, 0.0, attr="kappa", bound="nonnegative"),
    },
    "output": {
        "dir": _Field(str, None, attr="out_dir"),
        "format": _Field(str.strip, "csv", ("csv", "json"), attr="out_format"),
        "seed": _Field(int, 0, attr="seed"),
    },
    "sweep": {
        "parameter": _Field(str, None, attr="sweep_parameter"),
        "values": _Field(_floats, (), listlike=True, attr="sweep_values"),
    },
}


class RunConfig:
    """The typed run configuration, built once by ``load_config``: one slot per
    plain ``_SCHEMA`` key, the composites, and the ``source`` errors name."""

    __slots__ = ("source", "sections", "model_spec", "flow", "primitives",
                 *(f.attr for fields in _SCHEMA.values() for f in fields.values() if f.attr))

    def __init__(self, **values):
        for name in self.__slots__:
            setattr(self, name, values[name])

    def require_section(self, name: str) -> None:
        if name not in self.sections:
            raise ConfigError(f"missing required [{name}] block", self.source)


def parse_text(text: str, source: str = "<config>") -> dict[str, dict[str, tuple[str, int]]]:
    """Raw parse to {section: {key: (value text, line number)}}."""
    out: dict[str, dict[str, tuple[str, int]]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", source, lineno)
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", source, lineno)
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", source, lineno)
        if section is None:
            raise ConfigError("key before any [section] header", source, lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        spec = _SCHEMA[section].get(key)
        if spec is None:
            raise ConfigError(f"unknown key {key!r} in [{section}]", source, lineno)
        if key in out[section]:
            if not spec.listlike:
                raise ConfigError(f"duplicate key {key!r} in [{section}]", source, lineno)
            prev, _ = out[section][key]
            value, lineno = prev + ";" + value, None     # set on more than one line
        out[section][key] = (value, lineno)
    return out


def _coerce(section: str, key: str, text: str, source: str, line: int | None):
    spec = _SCHEMA[section][key]
    try:
        val = spec.convert(text)
        if spec.choices and val not in spec.choices:
            raise ValueError(f"must be one of {list(spec.choices)}")
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {exc}", source, line) from None
    return val


def _apply_overrides(raw: dict, overrides: tuple[str, ...],
                     flags: tuple[tuple[str, str, str], ...]) -> None:
    for i, item in enumerate(overrides):
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value",
                              f"override#{i + 1}")
        dotted, value = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} needs a section prefix",
                              f"override#{i + 1}")
        section, key = dotted.strip().split(".", 1)
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]", f"override#{i + 1}")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", f"override#{i + 1}")
        raw.setdefault(section, {})[key] = (value.strip(), f"override#{i + 1}")
    for flag, dotted, value in flags:
        section, key = dotted.split(".")
        raw.setdefault(section, {})[key] = (value, flag)


def _where(raw: dict, section: str, key: str, source: str) -> tuple[str, int | None]:
    """Where section.key was set: the file and its line (no line for a key
    set on several lines or not at all), or in place of a line number the
    label an override or a flag stored (``override#k``, ``--values``)."""
    at = raw.get(section, {}).get(key, (None, None))[1]
    return (at, None) if isinstance(at, str) else (source, at)


def _get(raw: dict, section: str, key: str, source: str):
    if section in raw and key in raw[section]:
        return _coerce(section, key, raw[section][key][0], *_where(raw, section, key, source))
    return _SCHEMA[section][key].default


def load_config(path: str | Path | None, overrides: tuple[str, ...] = (),
                text: str | None = None,
                flags: tuple[tuple[str, str, str], ...] = ()) -> RunConfig:
    """Parse, apply overrides, then ``flags``, and build the typed configuration.

    ``flags`` holds (flag, "section.key", value) triples, taken verbatim;
    errors in their values name the flag."""
    source = str(path) if path is not None else "<config>"
    if text is None:
        if path is None:
            raise ConfigError("no configuration given")
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}", source)
        text = p.read_text()
    raw = parse_text(text, source)
    _apply_overrides(raw, tuple(overrides), tuple(flags))
    g = lambda s, k: _get(raw, s, k, source)
    w = lambda s, k: _where(raw, s, k, source)

    model_spec = None
    if "model" in raw:
        kind = g("model", "kind")
        if kind is None:
            line = min((v[1] for v in raw["model"].values() if isinstance(v[1], int)),
                       default=None)
            raise ConfigError("model.kind is required", source, line)
        model_spec = {"kind": kind}
        quotient = kind == "lie_group_quotient"
        for key in ("factors",) if quotient else ("dim", "covolume", "brackets"):
            if key in raw["model"]:
                raise ConfigError(f"model.{key} does not apply to {kind} models", *w("model", key))
        if quotient:
            if g("model", "dim") is None:
                raise ConfigError("model.dim is required for quotient models", source)
            model_spec["dim"] = g("model", "dim")
            model_spec["covolume"] = g("model", "covolume")
            model_spec["brackets"] = [_model_entry(w, e, "brackets", (int, int, int, float))
                                      for e in g("model", "brackets")]
        else:
            model_spec["factors"] = [_model_entry(w, e, "factors", (str, int, float))
                                     for e in g("model", "factors")]
        dim = model_spec["dim"] if quotient else sum(d for _, d, _ in model_spec["factors"])
        chain_n = g("constants", "n")
        if chain_n not in (None, dim):
            raise ConfigError(f"constants.n = {chain_n} differs from the model's dimension {dim}",
                              *w("constants", "n"))

    # values are read before the constructors run: a bad one is a ConfigError
    # that already names its source; a constructor's error starts with the key
    flow_values = {key: g("flow", key) for key in _SCHEMA["flow"]}
    c = {key: g("constants", key) for key, f in _SCHEMA["constants"].items() if not f.attr}
    try:
        flow = FlowConfig(**flow_values, c_n=c["c_n"])
        primitives = ConstantPrimitives(
            c_n=c["c_n"], a_n=c["a_n"], c3=c["c3"],
            gallot=GallotConstant(c0=c["gallot_c0"], growth=c["gallot_growth"]),
            gromov_ruh_eps=c["gromov_ruh_eps"])
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]
        raise ConfigError(str(exc), *w("flow" if key in flow_values else "constants", key)) from None
    values = {f.attr: g(section, key) for section, fields in _SCHEMA.items()
              for key, f in fields.items() if f.attr}
    for section, fields in _SCHEMA.items():
        for key, f in fields.items():
            if f.bound is not None and not _BOUNDS[f.bound][1](values[f.attr]):
                raise ConfigError(f"{section}.{key} must be {_BOUNDS[f.bound][0]}, "
                                  f"got {values[f.attr]}", *w(section, key))
    return RunConfig(source=source, sections=frozenset(raw), model_spec=model_spec,
                     flow=flow, primitives=primitives, **values)


def _model_entry(where, entry, key: str, types: tuple) -> list:
    """One model.brackets or model.factors entry, converted token by token;
    ``where(section, key)`` names the source of a malformed one."""
    try:           # a wrong token count fails the strict zip with ValueError too
        return [t(token) for t, token in zip(types, entry, strict=True)]
    except ValueError:
        raise ConfigError(f"malformed model.{key} entry {' '.join(entry)!r}",
                          *where("model", key)) from None
