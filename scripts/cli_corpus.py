#!/usr/bin/env python3
"""Run a fixed corpus of CLI commands and record what each one did, for
comparison between two versions of the code.

    PYTHONPATH=src python3 scripts/cli_corpus.py OUT

Every command runs in this process through ``cli.main`` at --step 1e-2, on
the demo profiles and on the edge profiles of ``parity_dump`` (tau shifted
by tau_G there), each in r3, so3 and s3:

- ``synthesize`` with --out;
- ``classify`` with --out, at the default tolerances and with the estimated
  preset passed as --tol-* flags;
- ``verify`` of all 13 theorem ids with --out;
- ``mate --mode analytic`` of each kind, to stdout;
- ``mate --mode both`` and ``mate --mode geometric`` of each kind, with
  --out.

Each command with an empty --out "" follows, once per command on the slant
helix in r3.  Last come ``mate --mode both`` and ``mate --mode geometric``
of each kind and ``verify`` of cor6_3 and cor6_4 on a helix in every group,
with --out, on grids around the estimator's shortest: 30 samples (one
short), 31, and 11 (--step 0.1).  Then ``synthesize``, ``mate --mode
analytic``, ``mate --mode both``, ``verify`` of cor6_3 and ``classify`` run
on grids far too large for memory: 1e15 + 1 and 1e20 samples, and past the
float range (--step 5e-324).  Then come the commands of ``CONFIGS``,
each reading its settings from a config file written next to the --out
path: a start position in each group, a numeric kappa, ``verify`` without
theorems, an unknown tolerance name, a missing setting, numbers that must
be rejected (true or false, not finite, past the float range, or a start
position outside its group), and keys that the command does not read (one
command per key, a misspelt ``init_fram`` among them).

Last of all come the benchmark's own commands at its step, --step 1e-3:
``synthesize`` of each demo profile and ``mate --mode both`` of each kind
on the slant helix and Salkowski, in every group, with --out.  Their
outputs are megabytes, so each of these records holds a blake2b digest of
its stdout and --out text in their place.

After them, each bad choice of ``BAD_CHOICES`` runs as ``mate``, once as a
flag over a good config file and once as a value of the config file: an
unknown group, a group in capitals, an unknown kind and an unknown mode.
The very last record is ``--show-tolerances``.

Before each command, the --out path is filled with SENTINEL, so the record
of a failing command shows whether the file it was given survived.  OUT
holds one JSON line per command: its arguments, exit code, stdout, stderr
and the text at the --out path after the command (null where no file is
left there).  An exception that escapes ``cli.main`` is recorded as its
type name and message, so no traceback line number enters the file.  The
--out path is recorded as OUTDIR wherever it is printed.  Two versions of
the code give byte-identical files (compare with ``cmp``) exactly when
these commands behave the same.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from curvemates import cli
from curvemates.analysis import ToleranceSet
from curvemates.catalog import PROFILES

from parity_dump import EDGE_PROFILES, GROUPS, TAU_G

SENTINEL = "written before the command ran\n"

ESTIMATED = [arg for name, value in ToleranceSet.estimated()._asdict().items()
             for arg in (f"--tol-{name.replace('_', '-')}", repr(value))]


def cases():
    """(group, kappa, tau, domain) of every input profile."""
    for entry in PROFILES.values():
        for g in GROUPS:
            yield g, entry.kappa, entry.tau, entry.domain
    for kappa, m, domain in EDGE_PROFILES.values():
        for g in GROUPS:
            yield g, kappa, f"{TAU_G[g]!r}+({m})", domain


SYNTH = {"group": "r3", "kappa": "2+sin(s)", "tau": "1+s", "domain": [0, 2],
         "step": 0.01}

# (command, config file contents) of the config-file commands
CONFIGS = [
    (["synthesize"], {**SYNTH, "init_position": [0.5, -1.0, 2.0]}),
    (["synthesize"], {**SYNTH, "group": "so3",
                      "init_position": [0, -1, 0, 1, 0, 0, 0, 0, 1]}),
    (["synthesize"], {**SYNTH, "group": "s3", "init_position": [0.5, 0.5, -0.5, 0.5]}),
    (["classify"], {**SYNTH, "kappa": 2}),
    (["verify"], SYNTH),
    (["classify"], {**SYNTH, "tolerances": {"bogus": 1}}),
    (["synthesize"], {k: v for k, v in SYNTH.items() if k != "step"}),
    (["classify"], {**SYNTH, "kappa": True}),
    (["classify"], {**SYNTH, "tau": False}),
    (["synthesize"], {**SYNTH, "domain": [0, 10], "step": True}),
    (["synthesize"], {**SYNTH, "domain": [0, True]}),
    (["classify"], {**SYNTH, "tolerances": {"residual": True}}),
    (["synthesize"], {**SYNTH, "init_frame": [True, 0, 0, 0, True, 0, 0, 0, True]}),
    (["synthesize"], {**SYNTH, "init_position": [True, False, False]}),
    (["classify"], {**SYNTH, "kappa": float("inf")}),
    (["classify"], {**SYNTH, "tau": float("nan")}),
    (["classify"], {**SYNTH, "kappa": 10 ** 400}),
    (["synthesize"], {**SYNTH, "group": "so3",
                      "init_position": [1, 0, 0, 0, 1, 0, 0, 0, -1]}),
    (["synthesize"], {**SYNTH, "group": "s3", "init_position": [0, 0, 0, 0]}),
    (["mate"], {**SYNTH, "init_frame": [0, 1, 0, -1, 0, 0, 0, 0, 1]}),
    (["mate"], {**SYNTH, "theorems": ["thm4_1"]}),
    (["classify"], {**SYNTH, "init_position": [0.5, -1.0, 2.0]}),
    (["classify"], {**SYNTH, "mode": "both"}),
    (["verify"], {**SYNTH, "theorems": ["thm6_2"], "init_position": [0.5, -1.0, 2.0]}),
    (["synthesize"], {**SYNTH, "kind": "conjugate"}),
    (["synthesize"], {**SYNTH, "init_fram": [0, 1, 0, -1, 0, 0, 0, 0, 1]}),
]


# (key, value) of the choice settings given a value outside their rule
BAD_CHOICES = [("group", "se3"), ("group", "R3"), ("kind", "normal"), ("mode", "fast")]


def commands(out):
    """Argument lists of every command; ``out`` is the --out path."""
    for g, kappa, tau, (a, b) in cases():
        profile = ["--group", g, "--kappa", kappa, "--tau", tau,
                   f"--domain={a!r}:{b!r}", "--step", "1e-2"]
        yield ["synthesize"] + profile + ["--out", out]
        yield ["classify"] + profile + ["--out", out]
        yield ["classify"] + profile + ESTIMATED + ["--out", out]
        yield (["verify", "--theorems", ",".join(cli.THEOREMS)] + profile
               + ["--out", out])
        for kind in ("natural", "conjugate"):
            yield ["mate", "--kind", kind, "--mode", "analytic"] + profile
            for mode in ("both", "geometric"):
                yield ["mate", "--kind", kind, "--mode", mode] + profile + ["--out", out]
    slant = PROFILES["slant_helix"]
    profile = ["--group", "r3", "--kappa", slant.kappa, "--tau", slant.tau,
               f"--domain={slant.domain[0]!r}:{slant.domain[1]!r}", "--step", "1e-2"]
    for command in (["synthesize"], ["classify"], ["verify", "--theorems", "thm4_1"],
                    ["mate", "--mode", "both"]):
        yield command + profile + ["--out", ""]
    for g in GROUPS:
        for domain, step in (("0:0.29", "0.01"), ("0:0.3", "0.01"), ("0:1", "0.1")):
            profile = ["--group", g, "--kappa", "2", "--tau", f"{TAU_G[g]!r}+1",
                       f"--domain={domain}", "--step", step]
            for kind in ("natural", "conjugate"):
                for mode in ("both", "geometric"):
                    yield ["mate", "--kind", kind, "--mode", mode] + profile + ["--out", out]
            yield ["verify", "--theorems", "cor6_3,cor6_4"] + profile + ["--out", out]
    for step in ("1e-15", "1e-20", "5e-324"):
        profile = ["--group", "r3", "--kappa", "1", "--tau", "1", "--domain=0:1",
                   "--step", step]
        for command in (["synthesize"], ["mate", "--mode", "analytic"],
                        ["mate", "--mode", "both"], ["verify", "--theorems", "cor6_3"],
                        ["classify"]):
            yield command + profile + ["--out", out]
    config = os.path.join(os.path.dirname(out), "config.json")
    for command, data in CONFIGS:
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        yield command + ["--config", config, "--out", out]


def bench_commands(out):
    """Argument lists of the benchmark's commands, at its step."""
    for name, entry in PROFILES.items():
        for g in GROUPS:
            profile = ["--group", g, "--kappa", entry.kappa, "--tau", entry.tau,
                       f"--domain={entry.domain[0]!r}:{entry.domain[1]!r}",
                       "--step", "1e-3", "--out", out]
            yield ["synthesize"] + profile
            if name in ("slant_helix", "salkowski"):
                for kind in ("natural", "conjugate"):
                    yield ["mate", "--kind", kind, "--mode", "both"] + profile


def gate_commands(out):
    """Argument lists of the bad choices, from a flag and from a config file,
    then the tolerance table."""
    config = os.path.join(os.path.dirname(out), "config.json")
    for key, value in BAD_CHOICES:
        for data, flags in ((SYNTH, [f"--{key}", value]), ({**SYNTH, key: value}, [])):
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            yield ["mate", "--config", config, "--out", out] + flags
    yield ["--show-tolerances"]


def run(argv, out):
    """One command's record; ``out`` holds SENTINEL before it runs and is
    removed after."""
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(SENTINEL)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as e:          # argparse rejecting the arguments
            code = e.code
        except Exception as e:           # recorded as type and message
            code = f"{type(e).__name__}: {e}"
    written = None
    if os.path.exists(out):
        with open(out, encoding="utf-8", newline="") as fh:
            written = fh.read()
        os.remove(out)
    outdir = os.path.dirname(out)
    return {"argv": [a.replace(outdir, "OUTDIR") for a in argv], "code": code,
            "stdout": stdout.getvalue().replace(outdir, "OUTDIR"),
            "stderr": stderr.getvalue().replace(outdir, "OUTDIR"), "out": written}


def main(path: str) -> None:
    with tempfile.TemporaryDirectory() as tmp, open(path, "w", encoding="utf-8") as fh:
        out = os.path.join(tmp, "out")
        for argv in commands(out):
            fh.write(json.dumps(run(argv, out)) + "\n")
        for argv in bench_commands(out):
            record = run(argv, out)
            text = json.dumps([record.pop("stdout"), record.pop("out")])
            record["digest"] = hashlib.blake2b(text.encode()).hexdigest()
            fh.write(json.dumps(record) + "\n")
        for argv in gate_commands(out):
            fh.write(json.dumps(run(argv, out)) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_corpus.py OUT")
    main(sys.argv[1])
