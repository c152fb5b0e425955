"""Sectioned key-value run configuration.

Grammar (one statement per line)::

    # comment                      blank lines and #-comments are skipped
    [section]                      sections: scenario, parameters, output
    key = value

Values parse, in order of preference, as booleans (``true``/``false``),
integers, floats, comma-separated number lists, and otherwise verbatim
strings.  Parsing collects every problem (with its line number) instead of
stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

SECTIONS = ("scenario", "parameters", "output")


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


@dataclass
class RawItem:
    value: object
    line: int


@dataclass
class RawConfig:
    """Parser output before scenario-specific validation."""

    sections: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def get(self, section: str, key: str):
        return self.sections.get(section, {}).get(key)


def parse_value(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if "," in raw:
        parts = [p.strip() for p in raw.split(",")]
        try:
            return [float(p) for p in parts]
        except ValueError:
            pass
    return raw


def parse_sections(text: str) -> RawConfig:
    """Tokenize the document; collects structural errors, never raises."""
    raw = RawConfig(sections={s: {} for s in SECTIONS})
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in SECTIONS:
                raw.errors.append(
                    f"line {lineno}: unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in SECTIONS)
                )
                current = None
            else:
                current = name
            continue
        if "=" not in stripped:
            raw.errors.append(
                f"line {lineno}: expected 'key = value' or '[section]', got {stripped!r}"
            )
            continue
        if current is None:
            raw.errors.append(
                f"line {lineno}: 'key = value' outside any section"
            )
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raw.errors.append(f"line {lineno}: empty key")
            continue
        if key in raw.sections[current]:
            first = raw.sections[current][key].line
            raw.errors.append(
                f"line {lineno}: conflicting duplicate key '{key}' in [{current}] "
                f"(first set on line {first})"
            )
            continue
        raw.sections[current][key] = RawItem(parse_value(value), lineno)
    return raw


def apply_overrides(cfg: ScenarioConfig, seed=None, output_dir=None) -> ScenarioConfig:
    """Command-line overrides for the seed and the output directory."""
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    if output_dir is not None:
        cfg = replace(cfg, output_dir=str(output_dir))
    return cfg
