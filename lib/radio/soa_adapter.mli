(** Machine → struct-of-arrays bridge: run any ['msg Engine.node] array on
    {!Soa.run}.

    [protocol nodes] adapts the per-node decide/feedback closures of
    [nodes] into the range-callback shape {!Soa.protocol} expects:
    [decide] polls each non-down node in its range and writes the decision
    into the SoA intent arrays; [feedback] classifies each node's slot
    outcome through the {!Soa} accessors and replays it as the
    {!Action.feedback} the node would have received from {!Engine.run}.
    Message payloads of any type are supported — the adapter keeps the
    slot's decisions and hands each listener the winner's own typed
    message, exactly as {!Engine.run} recovers it, so the int-payload
    restriction of the SoA arrays never surfaces.

    [parallel] (default [false]) is forwarded to {!Soa.protocol.parallel}
    and must be [true] only when the node closures honor the sharding
    contract (per-node RNG streams, range-confined writes, [Atomic]
    commutative aggregates — see {!Soa.protocol}). With the default, the
    SoA engine calls the adapter sequentially over the full node range,
    which is correct for every machine whose feedback is
    order-commutative.

    Feedback-order caveat, inherited from {!Soa.run}: feedback arrives in
    ascending node id, not {!Engine.run}'s per-channel order, so a
    machine's feedback must be order-commutative across nodes for untraced
    results to match the classic engine (traced runs execute on
    {!Engine.run} itself, in the exact engine order). Every registry
    machine satisfies this; the differential suite in [test/test_soa.ml]
    enforces it entry by entry. *)

val protocol : ?parallel:bool -> 'msg Engine.node array -> Soa.protocol
