"""Command-line front end: synthesize trajectories, build mates, classify,
and verify, emitting plot-ready CSV and machine-readable JSON.

Exit codes: 0 success, 1 verification failure, 2 parse/config error (also a
config key the command does not read, a derivative outside the grammar, a
grid too short for the estimator or too large for memory, or an output,
stdout included, that cannot be written), 3 domain error during
evaluation, 4 degenerate conjugate mate (tau identically equal to the group
torsion).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import NamedTuple, Optional

import numpy as np

from . import analysis
from .analysis import ToleranceSet
from .expressions import DifferentiationError, DomainError, ExpressionSyntaxError
from .integrate import (_grid, _samples, integrate_direction_curve,
                        integrate_frame, reconstruct_position)
from .liegroup import (SO3, GroupSpec, _FAMILIES, det3, identity_element,
                       renormalize_element)
from .mates import (NotAFrenetMate, conjugate_mate_apparatus,
                    natural_mate_apparatus)
from .profiles import (CurvatureProfile, FrenetViolation, ProfileSamples,
                       require_frenet)

SCHEMA_VERSION = "1"

THEOREMS = ("thm4_1", "thm5_1", "thm5_2", "thm6_2", "cor3_1", "cor3_2",
            "cor3_3", "cor3_4", "cor5_2", "cor6_1", "cor6_2", "cor6_3",
            "cor6_4")
# the values that each choice setting takes
_CHOICES = {"kind": ("natural", "conjugate"), "mode": ("analytic", "geometric", "both")}


class ConfigError(ValueError):
    pass


class RunConfig(NamedTuple):
    group: str
    kappa: str
    tau: str
    domain: tuple[float, float]
    step: float
    out: Optional[str] = None
    mode: str = "analytic"
    kind: str = "natural"
    theorems: tuple[str, ...] = ()
    tolerances: ToleranceSet = ToleranceSet()
    init_frame: Optional[np.ndarray] = None      # 3x3, rows T, N, B
    init_position: Optional[np.ndarray] = None   # in the shape of a group element

    def spec(self) -> GroupSpec:
        return GroupSpec(self.group)

    def profile(self) -> CurvatureProfile:
        return CurvatureProfile.from_expressions(self.kappa, self.tau, self.domain)


def _parse_domain(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"domain must be 'a:b', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as e:
        raise ConfigError(f"bad domain {text!r}: {e}") from e


_TOL_FIELDS = ToleranceSet._fields
# the config file keys every command reads, and those of one command
_COMMON_KEYS = {"group", "kappa", "tau", "domain", "step", "out", "tolerances"}
_COMMAND_KEYS = {
    "synthesize": {"init_frame", "init_position"},
    "mate": {"kind", "mode"},
    "classify": set(),
    "verify": {"theorems"},
}
_FLOAT_MAX = sys.float_info.max


def _is_number(value) -> bool:
    """Whether value is a number that a float holds: not text, not true or
    false, and within the float range, so finite.  Compared rather than
    converted, so an integer past the float range is rejected here instead
    of overflowing later."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -_FLOAT_MAX <= value <= _FLOAT_MAX)


def _either(values) -> str:
    """The values as text: 'a, b or c'."""
    return f"{', '.join(values[:-1])} or {values[-1]}"


def _start(data: dict, key: str, spec: GroupSpec) -> Optional[np.ndarray]:
    """data[key], a start in spec's group, in the shape of its elements; None
    when absent.  It must have a projection onto the group (no det <= 0 or
    near singular matrix, no quaternion of zero or non-finite norm); the
    command integrates from the start itself, which it projects again.  A
    frame must be right-handed too: projecting a reflection gives an
    unrelated rotation."""
    value = data.get(key)
    if value is None:
        return None
    identity = identity_element(spec)
    flat = np.asarray(value, dtype=object).reshape(-1)
    if flat.size != identity.size or not all(map(_is_number, flat)):
        raise ConfigError(f"{key} must be {identity.size} finite numbers, got {value!r}")
    g = flat.astype(float).reshape(identity.shape)
    if key == "init_frame" and not det3(g) > 0:
        raise ConfigError("init_frame must be a right-handed frame (det > 0)")
    try:
        renormalize_element(spec, g)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e
    return g


def build_config(args: argparse.Namespace) -> RunConfig:
    """The settings of one command, from its flags and its config file (a
    flag wins over the file), each accepted or refused here by one rule:
    the command only computes."""
    data: dict = {}
    if getattr(args, "config", None):
        import json     # here: only a config file or a JSON report needs it
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as e:   # not UTF-8 or JSON, too deep
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        # a key no command reads, or one this command ignores, is more
        # likely a typo or a mistaken command than a setting to drop
        unread = sorted(set(data) - _COMMON_KEYS - _COMMAND_KEYS[args.command])
        if unread:
            raise ConfigError(f"{args.command} does not read config keys {unread}")

    def pick(key):
        v = getattr(args, key, None)
        return v if v is not None else data.get(key, RunConfig._field_defaults.get(key))

    group, kappa, tau, step, out, kind, mode = map(
        pick, ("group", "kappa", "tau", "step", "out", "kind", "mode"))
    domain = getattr(args, "domain", None)
    domain = _parse_domain(domain) if domain is not None else data.get("domain")
    if None in (group, kappa, tau, domain, step):
        raise ConfigError("group, kappa, tau, domain and step are all required")
    # a group is named exactly, as GroupSpec names it
    try:
        spec = GroupSpec(group)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    for key, value in (("kind", kind), ("mode", mode)):
        if value not in _CHOICES[key]:
            raise ConfigError(f"{key} must be {_either(_CHOICES[key])}, got {value!r}")
    for key, value in (("kappa", kappa), ("tau", tau)):
        if not (isinstance(value, str) or _is_number(value)):
            raise ConfigError(f"{key} must be an expression or a finite number, got {value!r}")
    # open() would take a number as a file descriptor; an empty path names
    # no file, for every command alike
    if out is not None and not (isinstance(out, str) and out):
        raise ConfigError(f"out must be a file path, got {out!r}")
    if not (isinstance(domain, (list, tuple)) and len(domain) == 2
            and all(map(_is_number, domain))):
        raise ConfigError(f"domain must be [a, b], two finite numbers, got {domain!r}")
    if not (_is_number(step) and step > 0):
        raise ConfigError(f"step must be a positive finite number, got {step!r}")
    domain, step = (float(domain[0]), float(domain[1])), float(step)
    if not domain[0] < domain[1]:
        raise ConfigError("domain must satisfy s_min < s_max")
    if not np.isfinite(domain[1] - domain[0]):
        raise ConfigError(f"domain span s_max - s_min must be finite, got {domain!r}")
    if step > (domain[1] - domain[0]) / 8.0:
        raise ConfigError("step too large: need h <= (s_max - s_min)/8")

    tol_kwargs = data.get("tolerances", {})
    if not isinstance(tol_kwargs, dict):
        raise ConfigError(f"tolerances must be a JSON object, got {tol_kwargs!r}")
    tol_kwargs = dict(tol_kwargs)
    for name in _TOL_FIELDS:
        v = getattr(args, f"tol_{name}", None)
        if v is not None:
            tol_kwargs[name] = v
    unknown = set(tol_kwargs) - set(_TOL_FIELDS)
    if unknown:
        raise ConfigError(f"unknown tolerance names: {sorted(unknown)}")
    for name, value in tol_kwargs.items():
        if not (_is_number(value) and value >= 0):
            raise ConfigError(f"tolerance {name} must be finite and >= 0, got {value!r}")
    tolerances = ToleranceSet(**tol_kwargs)

    theorems = getattr(args, "theorems", None)
    if theorems is not None:
        theorems = [t.strip() for t in theorems.split(",") if t.strip()]
    else:
        theorems = data.get("theorems", RunConfig._field_defaults["theorems"])
        if not isinstance(theorems, (list, tuple)):
            raise ConfigError(f"theorems must be a list of ids, got {theorems!r}")
    if args.command == "verify" and not theorems:
        raise ConfigError("verify requires --theorems")
    unknown = [t for t in theorems if t not in THEOREMS]
    if unknown:
        raise ConfigError(f"unknown theorem ids: {unknown}; "
                          f"expected among {list(THEOREMS)}")
    # the estimator leaves analysis.MARGIN samples out at each end
    if mode != "analytic" or not {"cor6_3", "cor6_4"}.isdisjoint(theorems):
        n = _samples(*domain, step)
        if n < analysis.MIN_SAMPLES:
            raise ConfigError(f"the grid has {n:.17g} samples; comparing estimated "
                              f"values needs at least {analysis.MIN_SAMPLES}")

    return RunConfig(group=group, kappa=kappa, tau=tau, domain=domain, step=step,
                     out=out, mode=mode, kind=kind, theorems=tuple(theorems),
                     tolerances=tolerances,
                     init_frame=_start(data, "init_frame", SO3),
                     init_position=_start(data, "init_position", spec))


# ---------------------------------------------------------------------------
# output helpers

_POSITION_COLUMNS = {
    "r3": ["x", "y", "z"],
    "s3": ["qw", "qx", "qy", "qz"],
    "so3": ["m11", "m12", "m13", "m21", "m22", "m23", "m31", "m32", "m33"],
}


# cells formatted at a time: bounds the temporaries of one chunk (a cell is
# 24 bytes in the formatter's layout, about 150 bytes live at once: some
# 310 KB), and gives narrow tables as many cells per chunk as the widest
_CHUNK_CELLS = 2048


def _csv_rows(columns: list[np.ndarray], blank=None, prefix: str = ""):
    """CSV body text, in chunks, with 17-significant-digit numerics.

    ``columns`` hold one row per CSV row (1-D, or more for several cells,
    row-major); their cells fill each row left to right after ``prefix``,
    literal text.
    ``blank = (j, mask)`` leaves cell j (an index, or a list of them) empty
    in the rows where mask is set: an empty cell stands for an undefined
    value (never NaN).
    """
    from . import csvfmt    # here: only the commands that write CSV need it
    columns = [c.reshape(len(c), -1) for c in columns]
    width, total = sum(c.shape[1] for c in columns), len(columns[0])
    rows = max(1, _CHUNK_CELLS // width)
    cells = np.empty((rows, width))             # one chunk, filled in place
    empty = None if blank is None else np.zeros(cells.shape, bool)
    for i in range(0, total, rows):
        n = min(rows, total - i)
        np.concatenate([c[i:i + n] for c in columns], axis=1, out=cells[:n])
        if blank is not None:
            empty.T[blank[0], :n] = blank[1][i:i + n]
        yield csvfmt.format_rows(cells[:n], None if empty is None else empty[:n], prefix)


def _csv(header: list[str], body):
    """CSV text chunks: the header row, then the chunks of body."""
    yield ",".join(header) + "\n"
    yield from body


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _json(payload: dict) -> str:
    import json
    return json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n"


def _write(path: Optional[str], chunks) -> None:
    """The text chunks to stdout (path None) or to the file at path, with LF
    endings.  Failing to open the file touches nothing; failing to write it
    removes it if it is a regular file.  Either is a ConfigError, and so is
    failing to write stdout."""
    if path is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as e:
            # the interpreter flushes stdout again at exit; where stdout is a
            # file descriptor, that flush then goes to devnull instead of
            # raising a second time
            try:
                fd = sys.stdout.fileno()
            except (OSError, ValueError):
                fd = None
            if fd is not None:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            raise ConfigError(f"cannot write stdout: {e}") from e
        return
    fh = None
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
        with fh:
            fh.writelines(chunks)
    except OSError as e:
        if fh is not None and os.path.isfile(path):
            os.remove(path)
        raise ConfigError(f"cannot write {path}: {e}") from e


def _header(config: RunConfig) -> dict:
    """The keys that open each JSON report of a profile."""
    return {"schema_version": SCHEMA_VERSION, "group": config.group,
            "kappa": config.kappa, "tau": config.tau, "domain": list(config.domain)}


# ---------------------------------------------------------------------------
# commands: each returns its exit code and its outputs, in the order main
# writes them, as (file path, or None for stdout, text chunks)

def cmd_synthesize(config: RunConfig) -> tuple[int, list]:
    spec = config.spec()
    p = config.profile()
    traj = integrate_frame(p, spec, config.domain[0], config.domain[1],
                           config.step, config.init_frame)
    traj = reconstruct_position(traj, spec, config.init_position)
    ps = ProfileSamples(p, spec, traj.s)
    header = (["s"] + _POSITION_COLUMNS[spec.family]
              + ["t1", "t2", "t3", "n1", "n2", "n3", "b1", "b2", "b3",
                 "kappa", "tau", "H", "sigma", "omega"])
    columns = [traj.s, traj.positions, traj.t, traj.n, traj.b,
               traj.kappa, traj.tau, ps.H, ps.sigma, ps.omega]
    blank = (header.index("sigma"), np.isnan(ps.sigma))
    return 0, [(config.out, _csv(header, _csv_rows(columns, blank=blank)))]


def cmd_mate(config: RunConfig) -> tuple[int, list]:
    spec = config.spec()
    p = config.profile()
    kind, mode = config.kind, config.mode
    mate = (natural_mate_apparatus(p, spec) if kind == "natural"
            else conjugate_mate_apparatus(p, spec))

    if mode == "analytic":
        s = _grid(config.domain[0], config.domain[1], config.step)
        # the mate formulas hold where the parent is a Frenet curve, and the
        # mate is one inside its segments only: elsewhere its cells stay empty
        require_frenet(p.kappa_at(s), s)
        outside = np.ones(s.shape, bool)
        for seg in mate.segments:
            outside &= (s < seg.s_min) | (s > seg.s_max)
        analytic = ProfileSamples(mate.profile, spec, s)
        return 0, [(config.out, _csv(["s", "kappa", "tau"], _csv_rows(
            [s, analytic.kappa, analytic.tau], blank=([1, 2], outside))))]
    # the mate's tangent is the parent's N or B: the parent's positions are
    # never needed
    traj = integrate_frame(p, spec, config.domain[0], config.domain[1], config.step)
    which = "principal_normal" if kind == "natural" else "binormal"
    curve = integrate_direction_curve(traj, which, spec)
    est = analysis.estimate_apparatus(curve, spec)
    s = curve.s
    pos_cols = _POSITION_COLUMNS[spec.family]

    if mode == "geometric":
        header = ["s"] + pos_cols + ["kappa_est", "tau_est"]
        return 0, [(config.out, _csv(header, _csv_rows(
            [s, curve.positions, est.kappa, est.tau])))]

    analytic = ProfileSamples(mate.profile, spec, s)
    header = ["s", "kappa_analytic", "tau_analytic"] + pos_cols + ["kappa_est", "tau_est"]
    v = est.valid
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "mode": mode,
        "samples_compared": int(v.sum()),
        "max_abs_kappa_diff": float(np.max(np.abs(est.kappa[v] - analytic.kappa[v]))),
        "max_abs_tau_diff": float(np.max(np.abs(est.tau[v] - analytic.tau[v]))),
    }
    return 0, [(config.out, _csv(header, _csv_rows(
        [s, analytic.kappa, analytic.tau, curve.positions, est.kappa, est.tau]))),
               (None, [_json(summary)])]


def cmd_classify(config: RunConfig) -> tuple[int, list]:
    spec = config.spec()
    p = config.profile()
    report = analysis.classify(p, spec, config.tolerances)
    verdicts = {}
    for name, v in report.verdicts.items():
        verdicts[name] = {"pass": v.passed, "residual": v.residual,
                          "tolerance": v.tolerance}
        if v.note:
            verdicts[name]["note"] = v.note
    payload = {
        **_header(config),
        "verdicts": verdicts,
        "spherical": {
            "pass": report.spherical.is_spherical,
            "radius": report.spherical.radius,
            "closure_residual": report.spherical.max_eq_residual,
        },
        "segments": [{"s_min": seg.s_min, "s_max": seg.s_max, "sign": seg.sign}
                     for seg in report.segments],
        "tolerances": config.tolerances._asdict(),
    }
    text = [_json(payload)]
    return 0, ([(config.out, text)] if config.out else []) + [(None, text)]


def _mate_geometry(p: CurvatureProfile, spec: GroupSpec, config: RunConfig) -> dict:
    """Reports of cor6_3 and cor6_4 from one integration of the parent and
    its direction curves, the conjugate one left out where tau - tau_G
    vanishes identically."""
    traj = integrate_frame(p, spec, config.domain[0], config.domain[1], config.step)
    traj = reconstruct_position(traj, spec)
    natural = integrate_direction_curve(traj, "principal_normal", spec)
    try:
        conjugate_mate_apparatus(p, spec)
    except NotAFrenetMate:
        conjugate = None
    else:
        conjugate = integrate_direction_curve(traj, "binormal", spec)
    return analysis.verify_mate_geometry(traj, natural, conjugate, spec, config.tolerances)


def cmd_verify(config: RunConfig) -> tuple[int, list]:
    spec = config.spec()
    p = config.profile()
    results = []
    reports = []
    traces = []
    mate_reports = None
    for theorem in config.theorems:
        if theorem in ("cor6_3", "cor6_4"):
            # both come from one integration, run when first needed
            if mate_reports is None:
                mate_reports = _mate_geometry(p, spec, config)
            report = mate_reports[theorem]
        else:
            # looked up per call, so a verifier wrapped after import is the one run
            report = getattr(analysis, f"verify_{theorem[:3]}_{theorem[3:]}")(
                p, spec, config.tolerances)
        entry = {
            "theorem": theorem,
            "applicable": report.applicable,
            "pass": report.passed,
            "max_residual": report.max_residual,
            "tolerance": report.tolerance,
            "details": report.details,
        }
        if report.hypothesis_note:
            entry["note"] = report.hypothesis_note
        results.append(entry)
        reports.append(report)
        if report.trace is not None:
            traces.append((theorem, report.trace))
    all_ok = all(report.ok for report in reports)
    payload = {
        **_header(config),
        "results": results,
        "all_ok": all_ok,
    }
    outputs = [(None, [_json(payload)])]
    # the trace file first: a failed write then prints no report
    if config.out and traces:
        body = (chunk for theorem, (s, resid) in traces
                for chunk in _csv_rows([s, resid], blank=(1, ~np.isfinite(resid)),
                                       prefix=f"{theorem},"))
        outputs.insert(0, (config.out, _csv(["theorem", "s", "residual"], body)))
    return (0 if all_ok else 1), outputs


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--group", help=_either(tuple(_FAMILIES)))
    sub.add_argument("--kappa", help="curvature expression in s")
    sub.add_argument("--tau", help="torsion expression in s")
    sub.add_argument("--domain", help="arc-length range a:b")
    sub.add_argument("--step", type=float, help="grid step h")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--config", help="JSON config file (flags override)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curve-mates",
        description="Curves from curvature/torsion laws in R^3, SO(3), S^3: "
                    "synthesis, natural/conjugate mates, classification, "
                    "verification.")
    parser.add_argument("--show-tolerances", action="store_true",
                        help="print the default tolerance table and exit")
    sub = parser.add_subparsers(dest="command")

    p_syn = sub.add_parser("synthesize", help="integrate a trajectory to CSV")
    _add_common(p_syn)

    p_mate = sub.add_parser("mate", help="natural/conjugate mate to CSV")
    _add_common(p_mate)
    for key, values in _CHOICES.items():
        p_mate.add_argument(f"--{key}", help=f"{_either(values)} "
                                             f"(default {RunConfig._field_defaults[key]})")

    p_cls = sub.add_parser("classify", help="special-curve classification JSON")
    p_ver = sub.add_parser("verify", help="verify theorem identities")
    # the commands that read tolerances
    for p_tol in (p_cls, p_ver):
        _add_common(p_tol)
        for name in _TOL_FIELDS:
            p_tol.add_argument(f"--tol-{name.replace('_', '-')}", type=float,
                               dest=f"tol_{name}",
                               help=f"override the {name} tolerance")
    p_ver.add_argument("--theorems", help="comma-separated ids, e.g. thm4_1,cor3_2")
    return parser


def _show_tolerances() -> list[str]:
    """The lines of the default tolerance table."""
    analytic = ToleranceSet()._asdict()
    return (["default tolerances (analytic preset):\n"]
            + [f"  {name:22s} {value:g}\n" for name, value in analytic.items()]
            + ["estimated preset overrides:\n"]
            + [f"  {name:22s} {value:g}\n"
               for name, value in ToleranceSet.estimated()._asdict().items()
               if analytic[name] != value])


def main(argv=None) -> int:
    """Run one command; argv defaults to sys.argv[1:].  Called without argv,
    main owns the process: the objects alive at entry (numpy and the
    imported modules) move to the collector's permanent generation, so no
    collection during the command and none at interpreter exit walks them.
    A caller that passes argv keeps its heap as it was."""
    if argv is None:
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None and not args.show_tolerances:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.show_tolerances:
            code, outputs = 0, [(None, _show_tolerances())]
        else:
            config = build_config(args)
            handler = {"synthesize": cmd_synthesize, "mate": cmd_mate,
                       "classify": cmd_classify, "verify": cmd_verify}[args.command]
            try:
                code, outputs = handler(config)
            except MemoryError as e:
                # every array a command builds scales with its grid
                n = _samples(*config.domain, config.step)
                raise ConfigError(f"a grid of {n:.17g} samples does not fit in memory") from e
        for path, chunks in outputs:
            _write(path, chunks)
        return code
    except (ConfigError, ExpressionSyntaxError, DifferentiationError, FrenetViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 3
    except NotAFrenetMate as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
