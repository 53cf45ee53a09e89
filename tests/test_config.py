import pytest

from riccilab.config import ConfigError, load_config, parse_text


def test_parse_sections_and_values():
    cfg = load_config(None, text="""
# comment line
[model]
kind = lie_group_quotient
dim = 3
brackets = 1 2 3 1.0 ; 1 3 2 0.0

[flow]
gamma = 2.0
t_end = auto
""")
    assert cfg.model_spec["dim"] == 3
    assert cfg.model_spec["brackets"][0] == [1, 2, 3, 1.0]
    assert cfg.flow.gamma == 2.0
    assert cfg.flow.t_end is None
    assert cfg.sections == {"model", "flow"}


def test_repeated_list_key_accumulates():
    cfg = load_config(None, text="""
[model]
kind = product_of_space_forms
factors = sphere 3 1.0
factors = circle 1 0.5
""")
    assert cfg.model_spec["factors"] == [["sphere", 3, 1.0], ["circle", 1, 0.5]]


def test_unknown_section_line_number():
    with pytest.raises(ConfigError, match=r"<config>:2: unknown section"):
        load_config(None, text="\n[warp]\nspeed = 9\n")


def test_unknown_key_line_number():
    with pytest.raises(ConfigError, match=r"<config>:3: unknown key 'speed'"):
        load_config(None, text="\n[flow]\nspeed = 9\n")


def test_duplicate_scalar_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'gamma'"):
        load_config(None, text="[flow]\ngamma = 1\ngamma = 2\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match=r":2: bad value for flow.gamma"):
        load_config(None, text="[flow]\ngamma = fast\n")


def test_key_before_section():
    with pytest.raises(ConfigError, match="before any"):
        load_config(None, text="gamma = 1\n")


def test_malformed_bracket_entry():
    with pytest.raises(ConfigError, match="malformed model.brackets"):
        load_config(None, text="""
[model]
kind = lie_group_quotient
dim = 3
brackets = 1 2 3
""")


@pytest.mark.parametrize("key,entry", [("brackets", "1 2 x 1.0"),
                                       ("factors", "sphere three 1.0")])
def test_malformed_entry_token_names_file_key_and_entry(tmp_path, key, entry):
    kind = "lie_group_quotient\ndim = 3" if key == "brackets" else "product_of_space_forms"
    path = tmp_path / "bad.cfg"
    path.write_text(f"[model]\nkind = {kind}\n{key} = {entry}\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}: malformed model.{key} entry {entry!r}"


def test_enum_validation():
    with pytest.raises(ConfigError, match="one of"):
        load_config(None, text="[sobolev]\nfamily = wavelet\n")


def test_overrides_apply_and_validate():
    cfg = load_config(None, text="[flow]\ngamma = 1\n",
                      overrides=("flow.gamma=3", "constants.c_n=2"))
    assert cfg.flow.gamma == 3.0
    assert cfg.primitives.c_n == 2.0
    with pytest.raises(ConfigError, match="override#1"):
        load_config(None, text="[flow]\ngamma = 1\n", overrides=("flow.nope=3",))
    with pytest.raises(ConfigError, match="section prefix"):
        load_config(None, text="[flow]\ngamma = 1\n", overrides=("gamma=3",))


def test_primitive_validation_surfaces_as_config_error():
    with pytest.raises(ConfigError, match="a_n"):
        load_config(None, text="[constants]\na_n = 0.5\n")


def test_raw_parse_tracks_lines():
    raw = parse_text("[flow]\ngamma = 1.5\n", source="x.cfg")
    assert raw["flow"]["gamma"] == ("1.5", 2)


def test_flags_apply_after_overrides_and_name_themselves(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[output]\nseed = 5\n")
    cfg = load_config(path, overrides=("output.seed=7",),
                      flags=(("--seed", "output.seed", "0"),))
    assert (cfg.seed, cfg.source) == (0, str(path))
    with pytest.raises(ConfigError) as exc:
        load_config(path, flags=(("--values", "sweep.values", "1,abc"),))
    assert str(exc.value).startswith("--values: bad value for sweep.values: ")


@pytest.mark.parametrize("text, overrides, where", [
    ("[model]\ndim = 3\n", (), "x.cfg:2: "),
    ("[flow]\nt_end = 0.1\n", ("model.dim=3",), "x.cfg: "),     # no line to point at
])
def test_missing_model_kind_points_at_a_file_line(text, overrides, where):
    with pytest.raises(ConfigError) as exc:
        load_config("x.cfg", overrides=overrides, text=text)
    assert str(exc.value) == where + "model.kind is required"
