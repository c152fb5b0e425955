"""Sectioned key-value run configuration.

Grammar (one statement per line)::

    # comment                      blank lines and #-comments are skipped
    [section]                      sections: scenario, parameters, output
    key = value

``parse_sections`` keeps each value as its stripped text and collects every
structural problem (with its line number) instead of stopping at the first.
A value is typed only once its key is known: ``read_value`` reads it as the
kind the key declares -- an integer within 64 bits, a finite float, a list of
finite floats, the text itself, or a dir (text, not empty, without NUL bytes).
So ``dir = 007`` is the directory ``007`` and ``n_particles = 1e4`` is 10000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidInputError

SECTIONS = ("scenario", "parameters", "output")
#: An empty output dir would quietly mean the current directory; it is refused.
EMPTY_DIR = "the output dir must not be empty; write . for the current directory"


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated run request."""

    scenario: str
    parameters: dict
    seed: int
    output_dir: str

    def echo(self) -> dict:
        """Flat key-value image of the config for summaries."""
        out = {"scenario.name": self.scenario, "scenario.seed": self.seed,
               "output.dir": self.output_dir}
        for k in sorted(self.parameters):
            out[f"parameters.{k}"] = self.parameters[k]
        return out


def _number(text: str, expected: str) -> float:
    """``float(text)``; the ValueError it raises says what was ``expected``."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected {expected}, got {text!r}") from None


def read_value(kind: str, text: str):
    """``text`` read as a value of ``kind``: "int", "float", "list", "str" or "dir".

    Numbers must be finite and integers must fit in 64 bits; a ValueError
    says what was expected and quotes the text.
    """
    if kind == "int":
        try:
            value = int(text)
        except ValueError:
            number = _number(text, "an integer")  # such as 1e4
            if not number.is_integer():
                raise ValueError(f"expected an integer, got {text!r}") from None
            value = int(number)
        if not -(2**63) <= value < 2**63:  # integers size arrays and key streams
            raise ValueError(f"expected an integer within 64 bits, got {text!r}")
        return value
    if kind == "float":
        value = _number(text, "a number")
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {text!r}")
        return value
    if kind == "list":
        try:
            values = [float(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"expected a comma-separated number list, got {text!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"expected finite numbers, got {text!r}")
        return values
    if kind == "str":
        return text
    if kind == "dir":
        if not text:
            raise ValueError(EMPTY_DIR)
        if "\0" in text:  # the OS refuses every path that holds one
            raise ValueError(f"the output dir must not hold a NUL byte, got {text!r}")
        return text
    raise AssertionError(f"unknown value kind {kind}")


def parse_sections(text: str) -> tuple[dict, list]:
    """Tokenize the document into ``(sections, errors)``; never raises.

    ``sections`` maps each section name to ``{key: (text, line)}``, and
    ``errors`` lists the structural problems, each with its line number.
    """
    sections, errors = {s: {} for s in SECTIONS}, []
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in SECTIONS:
                errors.append(f"line {lineno}: unknown section [{name}]; expected one of "
                              + ", ".join(f"[{s}]" for s in SECTIONS))
                current = None
            else:
                current = name
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value' or '[section]', "
                          f"got {stripped!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: 'key = value' outside any section")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key in sections[current]:
            errors.append(f"line {lineno}: conflicting duplicate key '{key}' in [{current}] "
                          f"(first set on line {sections[current][key][1]})")
            continue
        sections[current][key] = (value.strip(), lineno)
    return sections, errors


def read_flag(flag: str, kind: str, value):
    """A command-line ``value`` read as ``kind`` by the rule of the file; refused as ``flag``."""
    try:
        return read_value(kind, str(value))
    except ValueError as e:
        raise InvalidInputError(f"{flag}: {e}") from None


def apply_overrides(cfg: ScenarioConfig, seed=None, output_dir=None) -> ScenarioConfig:
    """Command-line overrides for the seed and the output directory.

    Each is read by the rule for its key in the file: the seed is an
    integer within 64 bits and the directory is a "dir".
    """
    if seed is not None:
        cfg = replace(cfg, seed=read_flag("--seed", "int", seed))
    if output_dir is not None:
        cfg = replace(cfg, output_dir=read_flag("--out", "dir", output_dir))
    return cfg
