"""Flat sectioned key=value run configuration.

The format is deliberately small: ``[section]`` headers, ``key = value``
entries, ``#`` or ``;`` comments.  Unknown sections or keys are hard
errors with the offending line number, because silent config drift would
invalidate inequality verdicts.  List-valued keys (brackets, factors,
values) take semicolon-separated entries and may be repeated to
accumulate.

``_SCHEMA`` is the one list of settings; ``RunConfig``'s slots and
construction derive from it, except the composites ``model_spec``,
``flow`` and ``primitives``.

Overrides of the form ``section.key=value``, then the CLI flags that stand
for one key each, are applied after the file parses and validated against
the same schema.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .constants import ConstantPrimitives
from .flow import FlowConfig
from .sobolev import FAMILY_NAMES, MIN_GRID, GallotConstant

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_text"]


class ConfigError(ValueError):
    def __init__(self, message: str, source: str = "<config>", line: int | None = None):
        self.source = source
        self.line = line
        where = f"{source}:{line}: " if line is not None else f"{source}: "
        super().__init__(where + message)


class _Field(NamedTuple):
    kind: str            # float|int|posint|str|enum|entries|floats|optfloat
    default: object = None
    choices: tuple[str, ...] = ()
    listlike: bool = False
    minimum: int = 1     # posint only
    attr: str | None = None   # RunConfig attribute of a plain key


_SCHEMA: dict[str, dict[str, _Field]] = {
    "model": {
        "kind": _Field("enum", None, ("lie_group_quotient", "product_of_space_forms")),
        "dim": _Field("int", None),
        "covolume": _Field("float", 1.0),
        "brackets": _Field("entries", (), listlike=True),
        "factors": _Field("entries", (), listlike=True),
    },
    "flow": {
        "gamma": _Field("float", 1.0),
        "t_end": _Field("optfloat", None),
        "rel_tol": _Field("float", 1e-9),
        "abs_tol": _Field("float", 1e-12),
        "max_rm": _Field("optfloat", None),
        "record_every": _Field("optfloat", None),
        "cs0": _Field("float", 1.0),
    },
    "constants": {
        "n": _Field("int", None, attr="constants_n"),
        "c_n": _Field("float", 1.0),
        "a_n": _Field("float", 1.0),
        "c3": _Field("float", 1.0),
        "gallot_c0": _Field("float", 1.0),
        "gallot_growth": _Field("enum", "exp_sqrt", ("constant", "exp_sqrt")),
        "gromov_ruh_eps": _Field("float", 1.0),
        "vol0": _Field("float", 1.0, attr="vol0"),
        "rm_n2_0": _Field("float", 0.0, attr="rm_n2_0"),
        "t_prime": _Field("float", 1.0, attr="t_prime"),
        "moser_k": _Field("posint", 64, attr="moser_k"),
    },
    "sobolev": {
        "family": _Field("enum", "eigenfunction", FAMILY_NAMES, attr="family"),
        "grid": _Field("posint", MIN_GRID, minimum=MIN_GRID, attr="grid"),
        "a_const": _Field("float", 1.0, attr="a_const"),
        "b_const": _Field("float", 1.0, attr="b_const"),
        "kappa": _Field("float", 0.0, attr="kappa"),
    },
    "output": {
        "dir": _Field("str", None, attr="out_dir"),
        "format": _Field("enum", "csv", ("csv", "json"), attr="out_format"),
        "stride": _Field("posint", 1, attr="stride"),
        "seed": _Field("int", 0, attr="seed"),
    },
    "sweep": {
        "parameter": _Field("str", None, attr="sweep_parameter"),
        "values": _Field("floats", (), listlike=True, attr="sweep_values"),
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
            value = prev + ";" + value
        out[section][key] = (value, lineno)
    return out


def _coerce(section: str, key: str, text: str, source: str, line: int | None):
    spec = _SCHEMA[section][key]
    try:
        if spec.kind == "float":
            return float(text)
        if spec.kind == "optfloat":
            return None if text.lower() in ("auto", "none") else float(text)
        if spec.kind in ("int", "posint"):
            val = int(text)
            if spec.kind == "posint" and val < spec.minimum:
                raise ValueError(f"must be >= {spec.minimum}, got {val}")
            return val
        if spec.kind == "str":
            return text
        if spec.kind == "enum":
            val = text.strip()
            if val not in spec.choices:
                raise ValueError(f"must be one of {list(spec.choices)}")
            return val
        if spec.kind == "entries":
            entries = []
            for chunk in text.replace(",", ";").split(";"):
                chunk = chunk.strip()
                if chunk:
                    entries.append(chunk.split())
            return tuple(tuple(tok for tok in e) for e in entries)
        if spec.kind == "floats":
            vals = []
            for chunk in text.replace(",", ";").replace(";", " ").split():
                vals.append(float(chunk))
            return tuple(vals)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {exc}", source, line) from None
    raise AssertionError(f"unhandled field kind {spec.kind}")


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
        raw.setdefault(section, {})[key] = (value.strip(), -i - 1)
    for flag, dotted, value in flags:     # in place of a line number, the flag's name
        section, key = dotted.split(".")
        raw.setdefault(section, {})[key] = (value, flag)


def _get(raw: dict, section: str, key: str, source: str):
    spec = _SCHEMA[section][key]
    if section in raw and key in raw[section]:
        text, line = raw[section][key]
        if isinstance(line, str):                 # a CLI flag
            return _coerce(section, key, text, line, None)
        return _coerce(section, key, text, source, line if line > 0 else None)
    return spec.default


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
            raise ConfigError(f"config file not found: {p}")
        text = p.read_text()
    raw = parse_text(text, source)
    _apply_overrides(raw, tuple(overrides), tuple(flags))
    g = lambda s, k: _get(raw, s, k, source)

    model_spec = None
    if "model" in raw:
        kind = g("model", "kind")
        if kind is None:
            line = min((v[1] for v in raw["model"].values() if v[1] > 0), default=None)
            raise ConfigError("model.kind is required", source, line)
        model_spec = {"kind": kind}
        if kind == "lie_group_quotient":
            if g("model", "dim") is None:
                raise ConfigError("model.dim is required for quotient models", source)
            model_spec["dim"] = g("model", "dim")
            model_spec["covolume"] = g("model", "covolume")
            model_spec["brackets"] = [_model_entry(source, e, "brackets", (int, int, int, float))
                                      for e in g("model", "brackets")]
        else:
            model_spec["factors"] = [_model_entry(source, e, "factors", (str, int, float))
                                     for e in g("model", "factors")]

    try:
        flow = FlowConfig(
            gamma=g("flow", "gamma"), t_end=g("flow", "t_end"),
            rel_tol=g("flow", "rel_tol"), abs_tol=g("flow", "abs_tol"),
            max_rm=g("flow", "max_rm"), record_every=g("flow", "record_every"),
            cs0=g("flow", "cs0"), c_n=g("constants", "c_n"))
        primitives = ConstantPrimitives(
            c_n=g("constants", "c_n"), a_n=g("constants", "a_n"),
            c3=g("constants", "c3"),
            gallot=GallotConstant(c0=g("constants", "gallot_c0"),
                                  growth=g("constants", "gallot_growth")),
            gromov_ruh_eps=g("constants", "gromov_ruh_eps"))
    except ValueError as exc:
        raise ConfigError(str(exc), source) from None
    values = {f.attr: g(section, key) for section, fields in _SCHEMA.items()
              for key, f in fields.items() if f.attr}
    kappa = values["kappa"]
    if not 0.0 <= kappa < math.inf:
        raise ConfigError(f"kappa must be finite and >= 0, got {kappa}", source)
    return RunConfig(source=source, sections=frozenset(raw), model_spec=model_spec,
                     flow=flow, primitives=primitives, **values)


def _model_entry(source: str, entry, key: str, types: tuple) -> list:
    """One model.brackets or model.factors entry, converted token by token."""
    try:           # a wrong token count fails the strict zip with ValueError too
        return [t(token) for t, token in zip(types, entry, strict=True)]
    except ValueError:
        raise ConfigError(f"malformed model.{key} entry {' '.join(entry)!r}",
                          source) from None
