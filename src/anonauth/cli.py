"""Single entry point: key ceremony, demo sessions, attacks, analysis,
revocation demo, and simulation, all reproducible from a written manifest.

Exit codes: 0 success/accepted, 2 parameter error, 3 rejected/revoked,
4 attack infeasible.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, NoReturn

import click

from . import __version__, adversary, analysis, keymgmt, protocol, revocation, simulation
from .numtheory import BlumModulus, Rng, generate_blum_modulus
from .protocol import Outcome, SessionConfig
from .zkp import Variant

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_REJECTED = 3
EXIT_INFEASIBLE = 4


@click.group()
def main():
    """Anonymous group authentication toolkit."""


_OUT_DIR = click.Option(
    ["--out-dir"], type=click.Path(path_type=Path), default=Path("out"), show_default=True
)
_SEED = click.Option(["--seed"], type=int, default=1, show_default=True, envvar="ANONAUTH_SEED")

# subcommand name -> its runner. A runner runs from a plain params dict, so
# `rerun` can replay a manifest, echoes its own outcome line and returns
# ({output file name: text}, exit code); it writes nothing itself.
RUNNERS: dict[str, Callable[[dict, Path], tuple[dict[str, str], int]]] = {}


def _subcommand(name: str, *params: click.Parameter):
    """Declare the decorated runner as subcommand ``name``: a click command
    taking ``params``, then ``--seed`` and ``--out-dir``, whose help is the
    runner's docstring, and the ``RUNNERS`` entry that ``rerun`` replays."""

    def declare(runner):
        RUNNERS[name] = runner
        main.command(name, params=[*params, _SEED, _OUT_DIR], help=runner.__doc__)(
            lambda out_dir, **values: sys.exit(_run(name, values, out_dir)[1])
        )
        return runner

    return declare


def _load_bundle(bundle_dir: Path):
    """(root public key, OBU credentials, RSU credentials) of a keygen
    bundle; ``InvalidParameters`` unless it has a readable root record and at
    least one credential of each kind."""
    try:
        root = json.loads((bundle_dir / "root.json").read_text())
        root_key = bytes.fromhex(root["root_public_key"])
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise keymgmt.InvalidParameters(f"no readable root.json in {bundle_dir}: {exc!r}") from exc
    obu_files = sorted(bundle_dir.glob("obu_*.json"))
    rsu_files = sorted(bundle_dir.glob("rsu_*.json"))
    obus = [keymgmt.credential_from_json(f.read_text(), keymgmt.ObuCredential) for f in obu_files]
    rsus = [keymgmt.credential_from_json(f.read_text(), keymgmt.RsuCredential) for f in rsu_files]
    if not obus or not rsus:
        raise keymgmt.InvalidParameters(f"{bundle_dir} holds no obu_*.json or no rsu_*.json")
    return root_key, obus, rsus


# ----------------------------------------------------------------- runners


@_subcommand(
    "keygen",
    click.Option(["--groups", "-q"], type=int, default=2, show_default=True),
    click.Option(["--pool-size", "-n"], type=int, default=8, show_default=True),
    click.Option(["--secrets-per-member", "-k"], type=int, default=2, show_default=True),
    click.Option(["--bit-length"], type=int, default=32, show_default=True),
    click.Option(["--obus-per-group"], type=int, default=2, show_default=True),
    click.Option(["--rsus"], type=int, default=1, show_default=True),
)
def run_keygen(params: dict, out_dir: Path) -> tuple[dict[str, str], int]:
    """Run the key ceremony and write provisioning bundles."""
    seed = params["seed"]
    modulus = generate_blum_modulus(params["bit_length"], seed)
    root_key, obus, rsus = keymgmt.deploy(
        modulus, Rng(seed ^ 0xCE5E), seed ^ 0x5119, params["groups"], params["pool_size"],
        params["secrets_per_member"], params["obus_per_group"], 1, params["rsus"],
    )
    root = {
        "root_public_key": root_key.hex(),
        "modulus": str(modulus.m),
        "bit_length": modulus.bit_length,
    }
    files = {"root.json": json.dumps(root, sort_keys=True)}
    for cred in obus:
        files[f"obu_{cred.group_id}_{cred.member_id}.json"] = keymgmt.credential_to_json(cred)
    for cred in rsus:
        files[f"rsu_{cred.rsu_id}.json"] = keymgmt.credential_to_json(cred)
    click.echo(f"wrote {len(files)} bundle files to {out_dir}")
    return files, EXIT_OK


@_subcommand(
    "auth-demo",
    click.Option(["--bundle"], type=click.Path(), required=True),
    click.Option(["--alpha"], type=int, default=2, show_default=True),
    click.Option(["--mu"], type=int, default=5, show_default=True),
    click.Option(["--h", "h"], type=int, default=2, show_default=True),
    click.Option(["--serv-id"], default="INFO", show_default=True),
    click.Option(["--hardened"], is_flag=True, default=False),
    click.Option(["--revoked-iv"], type=int, default=None),
)
def run_auth_demo(params: dict, out_dir: Path) -> tuple[dict[str, str], int]:
    """Run one live session from a provisioning bundle."""
    root, obus, rsus = _load_bundle(Path(params["bundle"]))
    obu_cred, rsu_cred = obus[0], rsus[0]
    config = SessionConfig(
        alpha=params["alpha"],
        mu=params["mu"],
        k=len(obu_cred.master_key),
        h=params["h"],
        n=len(obu_cred.pool_witnesses),
        serv_id=params["serv_id"],
        variant=Variant.HARDENED if params.get("hardened") else Variant.BASIC,
    )
    rng = Rng(params["seed"])
    rsu = protocol.Rsu(rsu_cred, rng.split())
    obu = protocol.Obu(obu_cred, root, rng.split())
    if params.get("revoked_iv") is not None:
        revocation.broadcast_revocation(params["revoked_iv"], 0, [rsu.table])
    result, transcript = protocol.run_full_session(obu, rsu, config)
    outcome = {
        "outcome": result.outcome.value,
        "verified_count": result.verified_count,
        "alpha": result.alpha,
    }
    click.echo(f"{result.outcome.value} verified_count={result.verified_count}")
    code = EXIT_OK if result.outcome is Outcome.ACCEPTED else EXIT_REJECTED
    return {
        "transcript.jsonl": "\n".join(frame.hex() for frame in transcript.frames) + "\n",
        "result.json": json.dumps(outcome, sort_keys=True),
    }, code


# --mc-formula name -> the Monte Carlo oracle it runs on an analyze params dict
_MC_FORMULAS = {
    "p_cheater": lambda p: analysis.mc_cheater(p["k"], p["h"], p["trials"], p["seed"]),
    "p_mu": lambda p: analysis.mc_bundle_cheater(
        p["k"], p["h"], p["n"], p["mu"], p["mu"], p["trials"], p["seed"]
    ),
    "p_leak": lambda p: analysis.mc_leak(p["n"], p["k"], p["mu"], p["trials"], p["seed"]),
    "p_missed": lambda p: analysis.mc_sequence_collision(
        p["n"], p["k"], p["mu"], p["trials"], p["seed"]
    ),
}


@_subcommand(
    "analyze",
    click.Option(["--figure"], type=click.Choice(list(analysis.FIGURES)), default=None),
    click.Option(["--mc-formula"], type=click.Choice(list(_MC_FORMULAS)), default=None),
    click.Option(["--k", "k"], type=int, default=2),
    click.Option(["--h", "h"], type=int, default=1),
    click.Option(["--n", "n"], type=int, default=6),
    click.Option(["--mu"], type=int, default=2),
    click.Option(["--trials"], type=int, default=10000, show_default=True),
)
def run_analyze(params: dict, out_dir: Path) -> tuple[dict[str, str], int]:
    """Emit figure series or a Monte Carlo probability report."""
    fig, formula = params.get("figure"), params.get("mc_formula")
    if not fig and not formula:
        raise ValueError("need --figure or --mc-formula")
    files = {}
    if fig:
        files[f"figure_{fig}.csv"] = analysis.figure_csv(fig)
    if formula:
        rep = _MC_FORMULAS[formula](params)
        files["report.csv"] = analysis.CSV_HEADER + "\n" + rep.csv_row() + "\n"
    click.echo(f"wrote {', '.join(files)}")
    return files, EXIT_OK


def _demo_session(params: dict, modulus=None):
    """(obu, rsu, config) of a one-group demo deployment built from the
    seed, n, k, h and mu in ``params``; a 24-bit modulus unless one is given."""
    seed, n, k, mu = params["seed"], params["n"], params["k"], params["mu"]
    config = SessionConfig(alpha=min(mu, 2), mu=mu, k=k, h=params["h"], n=n, serv_id="INFO")
    if modulus is None:
        modulus = generate_blum_modulus(24, seed)
    root, (obu_cred,), (rsu_cred,) = keymgmt.deploy(
        modulus, Rng(seed ^ 0xD37), seed ^ 0x151, 1, n, k, 1, seed & 0xFFFF | 1, 1
    )
    rng = Rng(seed)
    rsu = protocol.Rsu(rsu_cred, rng.split())
    return protocol.Obu(obu_cred, root, rng.split()), rsu, config


@_subcommand(
    "attack",
    click.Argument(["mode"], type=click.Choice(["record", "simulate"])),
    click.Option(["--k", "k"], type=int, default=2, show_default=True),
    click.Option(["--h", "h"], type=int, default=1, show_default=True),
    click.Option(["--n", "n"], type=int, default=4, show_default=True),
    click.Option(["--mu"], type=int, default=2, show_default=True),
    click.Option(["--sessions"], type=int, default=200, show_default=True),
    click.Option(["--variant"], type=click.Choice(["basic", "hardened"]), default="basic"),
    click.Option(["--tap"], type=click.Choice(["rounds", "ciphertext"]), default="rounds"),
)
def run_attack(params: dict, out_dir: Path) -> tuple[dict[str, str], int]:
    """Run a threat-model experiment and emit an attack report."""
    # both modes share a live deployment on a deliberately weak modulus;
    # commitment collisions are what make replay matrices fill
    n, k, h, mu, seed = params["n"], params["k"], params["h"], params["mu"], params["seed"]
    weak = BlumModulus(m=21, bit_length=5, p=3, q=7)
    obu, rsu, config = _demo_session(params, modulus=weak)
    transcripts = []
    for _ in range(params["sessions"]):
        _result, transcript = protocol.run_full_session(obu, rsu, config)
        transcripts.append(transcript)
    corpus = adversary.observe_sessions(transcripts, adversary.TapLevel(params["tap"]))

    if params["mode"] == "record":
        records = [
            {
                "secret_ids": list(obs.secret_ids),
                "rounds": [
                    {"w": str(rd.w), "challenge": [rd.challenge >> i & 1 for i in range(k)],
                     "y": str(rd.y)}
                    for rd in obs.rounds
                ],
            }
            for obs in corpus
        ]
        return {"corpus.json": json.dumps(records, sort_keys=True)}, EXIT_OK

    # mode == "simulate"
    matrices = adversary.build_simulators(corpus)
    if not matrices:
        click.echo("no usable observations at this tap level: attack infeasible")
        return {}, EXIT_INFEASIBLE
    attack_rng = Rng(seed ^ 0xA77)
    sets_rng = Rng(seed ^ 0x5E75)
    sessions = []
    for _ in range(params["sessions"]):
        iv = sets_rng.randbits(32)
        sessions.append(revocation.next_sequence(iv, 0, n, k, mu))
    hardened_polys = None
    if params.get("variant") == "hardened":
        hardened_polys = [
            [
                protocol._session_poly(attack_rng.randbytes(16), b"\0" * 8, b"bundle", i, k)
                for i in range(mu)
            ]
            for _ in sessions
        ]
    rep = adversary.simulator_attack(
        matrices,
        obu.credential.pool_witnesses,
        sessions,
        k,
        h,
        alpha=config.alpha,
        m=weak.m,
        verifier_rng=attack_rng,
        hardened_polys=hardened_polys,
    )
    return {
        "attack_report.csv": "kind,trials,successes,frequency,memory_modeled,memory_measured\n"
        f"{rep.kind},{rep.trials},{rep.successes},{rep.frequency:.6f},"
        f"{rep.memory_bytes_modeled},{rep.memory_bytes_measured}\n"
    }, EXIT_OK


@_subcommand(
    "revoke-demo",
    click.Option(["--k", "k"], type=int, default=2, show_default=True),
    click.Option(["--h", "h"], type=int, default=2, show_default=True),
    click.Option(["--n", "n"], type=int, default=6, show_default=True),
    click.Option(["--mu"], type=int, default=3, show_default=True),
)
def run_revoke_demo(params: dict, out_dir: Path) -> tuple[dict[str, str], int]:
    """Broadcast a revocation and show the replayed session being denied."""
    obu, rsu, config = _demo_session(params)
    iv = obu.credential.iv
    before, _ = protocol.run_full_session(obu, rsu, config)
    revocation.broadcast_revocation(iv, 0, [rsu.table])
    after, _ = protocol.run_full_session(obu, rsu, config)

    outcomes = {"before": before.outcome.value, "after": after.outcome.value}
    click.echo(f"before broadcast: {before.outcome.value}; after: {after.outcome.value}")
    ok = before.outcome is Outcome.ACCEPTED and after.outcome is Outcome.REJECTED_REVOKED
    return {
        "broadcast.json": revocation.encode_broadcast(iv, 0, "demo", rsu.table.version),
        "outcomes.json": json.dumps(outcomes, sort_keys=True),
    }, EXIT_OK if ok else EXIT_REJECTED


@_subcommand(
    "simulate",
    click.Option(
        ["--sweep"], type=click.Choice(["load", "speed"]), default="load", show_default=True
    ),
    click.Option(["--load"], type=int, default=10, show_default=True),
    click.Option(["--speed"], type=float, default=20.0, show_default=True),
    click.Option(["--duration"], type=float, default=40.0, show_default=True),
)
def run_simulate(params: dict, out_dir: Path) -> tuple[dict[str, str], int]:
    """Sweep the road-network simulation and emit metric CSVs."""
    config = simulation.SimConfig(
        obus_per_rsu=params["load"],
        speed_mps=params["speed"],
        duration_s=params["duration"],
    )
    dimension = params["sweep"]
    rows = simulation.sweep(config, dimension, params["seed"])
    name = f"sweep_{dimension}.csv"
    click.echo(f"wrote {name}")
    return {name: simulation.sweep_csv(rows, dimension)}, EXIT_OK


def _param_error(reason) -> NoReturn:
    click.echo(f"parameter error: {reason}", err=True)
    sys.exit(EXIT_PARAM)


def _run(subcommand: str, params: dict, out_dir: Path) -> tuple[list[str], int]:
    """Run one subcommand, then write its files and its manifest into
    ``out_dir``; an ``out_dir`` that cannot be made, or any ``ValueError``
    (every typed parameter error is one), exits 2 before a file is written."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path through one
        _param_error(f"--out-dir {out_dir}: {exc.strerror}")
    try:
        files, code = RUNNERS[subcommand](params, out_dir)
    except ValueError as exc:
        _param_error(exc)
    for name, text in files.items():
        (out_dir / name).write_text(text)
    manifest = {
        "subcommand": subcommand,
        "params": params,
        "seed": params.get("seed"),
        "artifact_version": __version__,
        "outputs": list(files),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
    return list(files), code


def _fits(option: click.Parameter, value) -> bool:
    """``value`` is what click itself passes for ``option``: None only where
    that is the default, else the value its type converts to itself."""
    if value is None:
        return option.default is None
    try:
        converted = option.type.convert(value, option, None)
    except (click.BadParameter, TypeError, AttributeError):
        return False
    return type(converted) is type(value) and converted == value


def _manifest_run(text: str) -> tuple[str, dict]:
    """(subcommand, params) of a manifest; a ``ValueError`` unless it is a
    JSON object naming a subcommand and a value of the right type for each
    of its options, and no other param."""
    try:
        spec = json.loads(text)
    except RecursionError as exc:
        raise ValueError("manifest nests too deeply to parse") from exc
    if not isinstance(spec, dict) or not isinstance(spec.get("params"), dict):
        raise ValueError("manifest is not an object with a params object")
    sub, params = spec.get("subcommand"), spec["params"]
    if not isinstance(sub, str) or sub not in RUNNERS:
        raise ValueError(f"unknown subcommand {sub!r}")
    options = [p for p in main.commands[sub].params if p.name != "out_dir"]
    missing = [p.name for p in options if p.name not in params]
    if missing:
        raise ValueError(f"{sub} manifest lacks params {', '.join(missing)}")
    unknown = sorted(params.keys() - {p.name for p in options})
    if unknown:
        raise ValueError(f"{sub} takes no params {', '.join(unknown)}")
    wrong = [p.name for p in options if not _fits(p, params[p.name])]
    if wrong:
        raise ValueError(f"{sub} manifest params of the wrong type: {', '.join(wrong)}")
    return sub, params


@main.command(
    params=[
        click.Option(
            ["--manifest"],
            type=click.Path(exists=True, dir_okay=False, path_type=Path),
            required=True,
        ),
        _OUT_DIR,
    ]
)
def rerun(manifest: Path, out_dir: Path):
    """Re-execute a recorded run; outputs are bit-identical to the original."""
    try:
        sub, params = _manifest_run(manifest.read_text())
    except ValueError as exc:
        _param_error(exc)
    outputs, _code = _run(sub, params, out_dir)
    click.echo(f"reproduced {', '.join(outputs)}")


if __name__ == "__main__":
    main()
