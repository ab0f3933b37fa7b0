(** Struct-of-arrays slot engine: {!Engine} semantics at million-node
    scale, with intra-trial sharding across OCaml domains.

    Same slot model as {!Engine.run} — synchronous slots, one uniformly
    random winner per contended channel (§2 of the paper), PR 4's
    canonical resolution order — but node state lives in dense arrays
    indexed by node id instead of per-node closure records, the per-node
    phases of a slot shard across a {!Crn_exec.Pool}, and channel
    resolution walks an O(active) worklist instead of the spectrum.

    {2 Determinism contract}

    Runs are byte-identical to {!Engine.run} (same seed, same protocol
    behaviour) and invariant under the shard count, because:

    - The shared [rng] is consumed {e only} by winner draws — one draw per
      contended channel, in ascending global channel id — executed
      sequentially between the parallel phases (plus, for a
      [parallel = false] protocol, its own sequential decide-time draws in
      ascending node order, as under {!Engine.run}). No per-shard RNG
      streams exist, so the draw sequence cannot depend on [shards].
    - Every parallel phase writes only shard-private state: contiguous
      node-id ranges of the node arrays, and private per-shard rows of the
      channel-count matrix. Merges into shared channel state happen
      sequentially between phases (a {!Crn_exec.Pool.parallel_for} return
      is the barrier).
    - Protocol decisions either draw randomness from per-node streams
      (as [Crn_core.Cogcast] has since PR 1), making decide order
      immaterial, or declare [parallel = false] and run their callbacks
      sequentially over the full node range (see {!protocol}).

    {2 Slot pipeline and array ownership}

    Per slot, with [S] shards over [n] nodes (shard [s] owns node range
    [[s*n/S, (s+1)*n/S)]):

    + {e parallel} — fault marking, [protocol.decide], label→channel
      translation, jamming; shard [s] writes [intent]/[label]/[msg]/
      [tuned] only at indices in its range, plus its private row of the
      broadcaster-count matrix (dense mode).
    + {e sequential} — merge occupancy into [count], build [active]
      (ascending channel ids).
    + {e sequential} — winner draw per active channel from the shared
      [rng], stored as a selection countdown.
    + {e parallel (dense) / sequential (sparse)} — winner materialization
      and listener delivery accounting; in dense mode each active channel
      is pre-assigned to the unique shard whose range contains its winner,
      so shards never contend on [winner]/[need].
    + {e parallel} — [protocol.feedback] over the node ranges.
    + {e sequential} — counter merges, jammer observation, stop check.

    Spectra up to [dense_channel_limit] channels use per-shard dense count
    rows (parallel counting and selection); larger spectra — the [c >> n]
    regime of §6, where [shared_core] makes [C] grow with [n] — fall back
    to sequential O(n) occupancy scans. Both count identical totals and
    draw in identical order, so the strategy choice never changes results.

    This engine records no event trace: a traced run on the [Runner.Soa]
    backend executes the machine's nodes on {!Engine.run}, so its trace is
    the engine's by construction. *)

(** {1 Node state} *)

type t = {
  n : int;  (** Node count; all node arrays have this length. *)
  intent : Bytes.t;
      (** Per-node intent code for the current slot: {!idle}, {!listen},
          {!broadcast}, {!jammed_listen}, {!jammed_broadcast} or {!down}.
          Before [decide] runs, the engine stamps each node {!idle} or
          {!down}; [decide] upgrades its own nodes to {!listen} /
          {!broadcast}; the jamming scan downgrades absorbed actions. *)
  label : int array;  (** Per-node local channel label chosen this slot. *)
  msg : int array;  (** Per-node broadcast payload (broadcasters only). *)
  tuned : int array;
      (** Per-node global channel id, valid for audible (and jammed)
          nodes once phase 1 completes. *)
  mutable num_channels : int;
      (** Capacity of the channel-indexed arrays below. *)
  mutable count : int array;
      (** Per-channel audible broadcaster count for the current slot.
          Valid from the occupancy merge onwards; only previously-active
          channels are reset between slots. *)
  mutable winner : int array;
      (** Per-channel winning node id — meaningful only on channels with
          [count > 0] this slot. *)
  mutable winner_msg : int array;  (** The winner's payload, same caveat. *)
  mutable need : int array;  (** Internal: winner-selection countdown. *)
  mutable owner : int array;  (** Internal: selecting shard (dense mode). *)
  active : int array;
      (** Channels with at least one audible broadcaster this slot,
          [active.(0 .. active_len - 1)], in ascending channel id. *)
  mutable active_len : int;
}

(** {2 Intent codes} *)

val idle : char
(** No action this slot — the node is skipped like a down node. (The
    machine protocols always act; this exists so [decide] ranges may skip
    nodes without sentinel labels.) *)

val listen : char

val broadcast : char

val jammed_listen : char
(** Was listening; the action was absorbed by the jammer. *)

val jammed_broadcast : char
(** Was broadcasting; the action was absorbed by the jammer. *)

val down : char
(** Faulted out this slot ({!Faults}); [decide] must not touch the node —
    in particular it must not consume the node's RNG stream, mirroring
    {!Engine.run} where down nodes are never asked to decide. *)

(** {1 Protocols}

    A protocol is a pair of range callbacks replacing {!Engine.node}'s
    per-node closures. [decide t ~slot ~lo ~hi] must set an intent (via
    {!set_listen} / {!set_broadcast}) for every node in [[lo, hi)] that is
    not {!down}. [feedback] reads the slot's outcome through the accessors
    below (or the arrays directly) for every node in [[lo, hi)] and
    updates protocol state.

    [parallel] declares whether the callbacks honor the {e sharding
    contract}: a callback invoked with range [[lo, hi)] may touch
    node-indexed state only inside that range — ranges partition [0, n)
    across domains, and out-of-range writes are data races — randomness is
    drawn only from per-node streams, and shared aggregates are [Atomic]
    and commutative (e.g. a fetch-and-add informed counter), so their
    final value is shard-count independent. The engine then calls a
    [parallel] callback with whole shards of any size.

    A protocol with [parallel = false] — one that draws from a stream
    shared across nodes in [decide], or mutates plain shared counters —
    instead receives exactly one [decide] and one [feedback] call per
    slot, covering [[0, n)], executed sequentially between the engine's
    parallel phases (translation, occupancy, winner materialization still
    shard). Decide-time draws from the shared [rng] then interleave with
    the winner draws exactly as under {!Engine.run}, so results stay
    byte-identical to the classic engine at any shard count. Feedback
    must still be order-commutative across nodes (this engine delivers it
    in ascending node order, {!Engine.run} per channel), which every
    machine in the registry is. *)

type protocol = {
  parallel : bool;
  decide : t -> slot:int -> lo:int -> hi:int -> unit;
  feedback : t -> slot:int -> lo:int -> hi:int -> unit;
}

(** {2 Decide-phase writers} *)

val set_listen : t -> int -> label:int -> unit
(** [set_listen t v ~label] : node [v] listens on its local [label]. *)

val set_broadcast : t -> int -> label:int -> msg:int -> unit
(** [set_broadcast t v ~label ~msg] : node [v] broadcasts payload [msg]
    on its local [label]. *)

(** {2 Feedback-phase readers}

    All valid once winner materialization has completed — i.e. inside
    [feedback] callbacks. *)

val is_down : t -> int -> bool

val was_jammed : t -> int -> bool

val heard : t -> int -> bool
(** The node listened and some broadcaster won its channel; {!sender} and
    {!message} are then valid. *)

val silent : t -> int -> bool
(** The node listened and no one was audible on its channel. *)

val sender : t -> int -> int
(** Winner of the channel the node is tuned to. *)

val message : t -> int -> int
(** That winner's payload. *)

val won : t -> int -> bool
(** The node broadcast and won its channel. *)

val lost : t -> int -> bool
(** The node broadcast and lost; {!sender} / {!message} describe the
    winner it lost to. *)

val num_nodes : t -> int

(** {1 Running} *)

type outcome = Engine.outcome = {
  slots_run : int;
  stopped_early : bool;
  counters : Trace.Counters.t;
}

val run :
  ?pool:Crn_exec.Pool.t ->
  ?shards:int ->
  ?jammer:Jammer.t ->
  ?faults:Faults.t ->
  ?metrics:Metrics.t ->
  ?stop:(slot:int -> bool) ->
  ?on_slot_end:(slot:int -> unit) ->
  ?dense_channel_limit:int ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  protocol:protocol ->
  max_slots:int ->
  unit ->
  outcome
(** Run up to [max_slots] slots (or until [stop ~slot] holds, checked
    after each slot, as {!Engine.run} does).

    [shards] (default 1) splits each slot's per-node phases into that many
    contiguous node ranges. With [shards > 1] the ranges run on [pool]
    (two {!Crn_exec.Pool.parallel_for} barriers per slot); when no pool is
    supplied a throwaway pool of [shards] domains wraps the run. A pool
    smaller than [shards] — including the sequential [jobs = 1] pool that
    {!Crn_exec.Trials} hands out when trial-level parallelism already saturates the
    machine — just runs shards consecutively; results are identical at any
    combination, per the determinism contract above.

    [dense_channel_limit] (default 4096) caps the spectrum size for the
    dense counting strategy; tests pass [0] to force the sparse path.

    Raises [Invalid_argument] on an empty availability, negative
    [max_slots], [shards < 1], wrongly-sized [metrics], or a [decide]
    that picks a label outside [[0, c)]. *)
