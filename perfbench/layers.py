"""Which library calls the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<what>``; the layer is the ``anonauth`` module.
``cli`` is not traced: it only wraps the library.
"""

from __future__ import annotations

from anonauth import (
    adversary,
    analysis,
    envelopes,
    keymgmt,
    numtheory,
    protocol,
    revocation,
    simulation,
    zkp,
)

from tracer import Tracer

# layers reported as <layer>.self_ms; analysis has one span kind, reported
# as analysis.mc.self_ms
LAYERS = (
    "numtheory", "zkp", "keymgmt", "envelopes", "protocol",
    "revocation", "adversary", "simulation",
)

# protocol step -> endpoint methods that make it up
STEPS = {
    "start": [(protocol.Rsu, "beacon"), (protocol.Obu, "start")],
    "register": [(protocol.Rsu, "register_session")],
    "negotiate": [(protocol.Rsu, "negotiate_privacy")],
    "sets": [(protocol.Obu, "choose_proof_sets"), (protocol.Rsu, "receive_proof_sets")],
    "membership_prove": [(protocol.Obu, "prove_membership")],
    "membership_check": [(protocol.Rsu, "check_membership_proof")],
    "bundle_generate": [(protocol.Rsu, "generate_proof_bundle")],
    "bundle_verify": [(protocol.Obu, "verify_bundle")],
    "close": [(protocol.Obu, "closing_reply"), (protocol.Rsu, "record_closing_reply")],
}


def install(tracer: Tracer) -> None:
    """Wrap every traced call; ``tracer.uninstall()`` undoes it."""
    fn = tracer.patch_function
    fn(numtheory, "generate_blum_modulus", "numtheory.generate_blum_modulus")
    fn(numtheory, "sample_unit", "numtheory.sample_unit")
    fn(numtheory, "gcd", "numtheory.gcd")
    fn(numtheory, "mod_inv", "numtheory.mod_inv")

    def count_rounds(result, _):
        tracer.count("zkp.rounds", len(result[0].rounds))

    def count_hardened(result, commits):
        # every attempt commits once (one sample_unit); kept rounds are the rest
        rounds = len(result[0].rounds)
        tracer.count("zkp.rounds", rounds)
        tracer.count("zkp.hardened_retries", commits - rounds)

    fn(zkp, "run_proof", "zkp.prove", post=count_rounds)
    fn(zkp, "run_hardened_proof", "zkp.prove", post=count_hardened,
       watch="numtheory.sample_unit")
    fn(zkp, "verify_round", "zkp.verify_round")
    fn(zkp, "hardened_verify", "zkp.hardened_verify")
    fn(zkp, "encode_proof", "zkp.codec")
    fn(zkp, "decode_proof", "zkp.codec")

    fn(keymgmt, "form_groups", "keymgmt.form_groups")
    fn(keymgmt, "provision_obu", "keymgmt.provision")
    fn(keymgmt, "provision_rsu", "keymgmt.provision")
    fn(keymgmt, "verify_certificate", "keymgmt.verify_certificate")

    for cls, span in ((envelopes.AesGcmEnvelope, "envelopes.aead"),
                      (envelopes.EciesSeal, "envelopes.ecies")):
        tracer.patch_method(cls, "seal", span)
        tracer.patch_method(cls, "open", span)

    fn(protocol, "run_full_session", "protocol.session")
    for step, methods in STEPS.items():
        for cls, attr in methods:
            tracer.patch_method(cls, attr, f"protocol.step.{step}")

    def count_rebuild(_, sequences):
        if sequences:
            tracer.count("revocation.rebuilds")
            tracer.count("revocation.rebuild_sequences", sequences)

    fn(revocation, "screen_session", "revocation.screen", post=count_rebuild,
       watch="revocation.next_sequence")
    fn(revocation, "next_sequence", "revocation.next_sequence")
    fn(revocation, "broadcast_revocation", "revocation.broadcast")

    fn(adversary, "cheater_attempt", "adversary.cheater_attempt")
    fn(adversary, "bundle_cheater_attempt", "adversary.bundle_cheater_attempt")

    for name in ("mc_cheater", "mc_bundle_cheater", "mc_leak", "mc_sequence_collision"):
        fn(analysis, name, "analysis.mc")

    def count_sim_sessions(result, _):
        tracer.count("simulation.sessions_completed",
                     result.sessions_accepted + result.sessions_rejected)

    fn(simulation, "run_sim", "simulation.run_sim", post=count_sim_sessions)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, overhead_s: float, untraced_s: float) -> dict:
    """name -> (value, unit). ``.ms`` is self time unless noted."""
    t = tracer
    out: dict[str, tuple[float, str]] = {}

    def calls_ms(metric: str, span: str) -> None:
        out[f"{metric}.calls"] = (t.calls_of(span), "count")
        out[f"{metric}.ms"] = (t.self_ms(span), "ms")

    for what in ("sample_unit", "gcd", "mod_inv"):
        calls_ms(f"numtheory.{what}", f"numtheory.{what}")
    out["numtheory.generate_blum_modulus.ms"] = (t.self_ms("numtheory.generate_blum_modulus"), "ms")

    out["keymgmt.form_groups.ms"] = (t.self_ms("keymgmt.form_groups"), "ms")
    out["keymgmt.provision.ms"] = (t.self_ms("keymgmt.provision"), "ms")
    calls_ms("keymgmt.verify_certificate", "keymgmt.verify_certificate")

    calls_ms("zkp.prove", "zkp.prove")
    verify_calls = t.calls_of("zkp.verify_round") + t.calls_of("zkp.hardened_verify")
    rounds = t.counters.get("zkp.rounds", 0)
    out["zkp.verify.calls"] = (verify_calls, "count")
    out["zkp.verify.ms"] = (t.self_ms("zkp.verify_round") + t.self_ms("zkp.hardened_verify"), "ms")
    out["zkp.rounds"] = (rounds, "count")
    out["zkp.verify_round.calls"] = (t.calls_of("zkp.verify_round"), "count")
    out["zkp.verify_per_round"] = (_ratio(verify_calls, rounds), "ratio")
    out["zkp.hardened_retries"] = (t.counters.get("zkp.hardened_retries", 0), "count")
    out["zkp.codec.ms"] = (t.self_ms("zkp.codec"), "ms")

    calls_ms("envelopes.aead", "envelopes.aead")
    calls_ms("envelopes.ecies", "envelopes.ecies")

    calls_ms("revocation.screen", "revocation.screen")
    rebuilds = t.counters.get("revocation.rebuilds", 0)
    out["revocation.rebuilds"] = (rebuilds, "count")
    calls_ms("revocation.next_sequence", "revocation.next_sequence")
    out["revocation.sequences_per_rebuild"] = (
        _ratio(t.counters.get("revocation.rebuild_sequences", 0), rebuilds), "count")

    # a step's time is inclusive: it says which step the session waits on
    for step in STEPS:
        out[f"protocol.step.{step}.ms"] = (t.total_ms(f"protocol.step.{step}"), "ms")

    calls_ms("adversary.cheater_attempt", "adversary.cheater_attempt")
    calls_ms("adversary.bundle_cheater_attempt", "adversary.bundle_cheater_attempt")
    out["analysis.mc.self_ms"] = (t.self_ms("analysis.mc"), "ms")

    out["simulation.run_sim.ms"] = (t.total_ms("simulation.run_sim"), "ms")
    out["simulation.sessions_completed"] = (
        t.counters.get("simulation.sessions_completed", 0), "count")

    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (t.layer_self_ms(layer), "ms")

    out["trace.spans"] = (sum(t.calls), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_ratio"] = (_ratio(overhead_s, untraced_s), "ratio")
    return out
