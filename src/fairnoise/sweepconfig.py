"""Flat key-value config files for the sweep harness.

One ``key = value`` pair per line, ``#`` lines are comments. CLI flags
override file values, file values override the shipped defaults. Unknown
keys are errors. The keys, listed once in ``_SCHEMA``, are the fields of
the config dataclasses (``synth_`` and ``est_`` prefixes mark the
synthetic-data and estimator fields); ``data`` picks the data source.
"""

import dataclasses

from .bench import (ExperimentConfig, SyntheticConfig, default_experiment_config)
from .core import Criterion, FairnessLoss
from .errors import ValidationError
from .estimation import EstimatorConfig
from .fairtrain import TrainConfig

CRITERIA = {c.value: c for c in Criterion}
LOSSES = {"default": None, **{loss.value: loss for loss in FairnessLoss}}
DATA_KEY, CSV_KEY = "data", "csv_path"


def _names(text):
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _floats(text):
    return tuple(float(v) for v in _names(text))


def _bool(text):
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


def _pairs(text):
    pairs = [pair.split(":") for pair in _names(text)]
    if any(len(pair) != 2 for pair in pairs):
        raise ValidationError("entries look like rho+:rho-")
    return tuple((float(p), float(q)) for p, q in pairs)


def _choice(table):
    def decode(text):
        if text not in table:
            raise ValidationError(f"expected one of {sorted(table)}")
        return table[text]
    return decode, {v: k for k, v in table.items()}.__getitem__


# (decode, encode) per annotated field type; encoding to None omits the key.
_CODECS = {
    float: (float, repr),
    int: (int, str),
    str: (str, lambda v: v),
    bool: (_bool, lambda v: "true" if v else "false"),
    tuple[float, ...]: (_floats, lambda v: ",".join(repr(x) for x in v)),
    tuple[str, ...]: (_names, ",".join),
    tuple[tuple[float, float], ...]: (
        _pairs, lambda v: ",".join(f"{p!r}:{q!r}" for p, q in v) or None),
    Criterion: _choice(CRITERIA),
    FairnessLoss: _choice(LOSSES),
}

_SECTIONS = {None: ExperimentConfig, "synthetic": SyntheticConfig,
             "train": TrainConfig, "estimator": EstimatorConfig}


def _rows(section, prefix, names=None):
    """Schema rows for the named fields of a section, or for all of them."""
    types = {f.name: f.type for f in dataclasses.fields(_SECTIONS[section])}
    return [(prefix + name, section, name, _CODECS[types[name]])
            for name in (names.split() if names else types)]


# (key, section, field, codec) in file order. Section None is ExperimentConfig
# itself; a synth_mean_* row's field is its index into SyntheticConfig.means.
_SCHEMA = (
    _rows(None, "", CSV_KEY)
    + [(f"synth_mean_{cell}", "synthetic", i, _CODECS[tuple[float, ...]])
       for i, cell in enumerate(("a0y0", "a0y1", "a1y0", "a1y1"))]
    + _rows("synthetic", "synth_", "proportions variance n seed")
    + _rows(None, "", "criterion loss rho_plus rho_minus noise_mode rho_hat_grid "
            "tau_grid methods repetitions train_fraction base_seed")
    + _rows("train", "") + _rows("estimator", "est_"))

KNOWN_KEYS = frozenset([DATA_KEY] + [row[0] for row in _SCHEMA])


def parse_config_file(path):
    """Read a flat key-value file into a string mapping."""
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            mapping[key] = value.strip()
    return mapping


def build_experiment_config(mapping):
    """ExperimentConfig from a merged string mapping; unset keys keep the
    shipped defaults. Synthetic keys are ignored for CSV data."""
    m = dict(mapping)
    source = m.pop(DATA_KEY, "synthetic")
    if source not in ("synthetic", "csv"):
        raise ValidationError(f"{DATA_KEY} must be 'synthetic' or 'csv'")
    if (source == "csv") != bool(m.get(CSV_KEY)):
        raise ValidationError(f"{CSV_KEY} is set exactly when {DATA_KEY} = csv")
    values = {section: {} for section in _SECTIONS}
    for key, section, field, (decode, _) in _SCHEMA:
        text = m.pop(key, None)
        if text is None or (section == "synthetic" and source == "csv"):
            continue
        try:
            values[section][field] = decode(text)
        except ValueError as exc:
            raise ValidationError(f"{key}: {exc}") from None
    if m:
        raise ValidationError(f"unused config keys: {sorted(m)}")
    base = default_experiment_config()
    synthetic, syn = None, values["synthetic"]
    if source == "synthetic":
        means = tuple(syn.pop(i, mean) for i, mean in enumerate(base.synthetic.means))
        synthetic = dataclasses.replace(base.synthetic, means=means, **syn)
    return dataclasses.replace(
        base, synthetic=synthetic, **values[None],
        train=dataclasses.replace(base.train, **values["train"]),
        estimator=dataclasses.replace(base.estimator, **values["estimator"]))


def config_to_mapping(config):
    """Flat mapping that builds back into ``config``."""
    out = {DATA_KEY: "synthetic" if config.csv_path is None else "csv"}
    for key, section, field, (_, encode) in _SCHEMA:
        obj = config if section is None else getattr(config, section)
        if obj is None:  # the synthetic section of a CSV config
            continue
        text = encode(obj.means[field] if isinstance(field, int)
                      else getattr(obj, field))
        if text is not None:
            out[key] = text
    return out


def write_config_file(config, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# fairnoise sweep configuration\n")
        for key, value in config_to_mapping(config).items():
            fh.write(f"{key} = {value}\n")
