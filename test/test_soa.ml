(* Differential tests for the struct-of-arrays engine.

   Four claims, property-tested over randomized scenarios (topology
   shape, dynamic availability, jammers, faults, early stops — all
   derived from one seed, n up to 256):

   1. Traced equivalence: a traced run on the {!Runner.Soa} backend, at
      shards 1, 2 and 8, is observationally identical to a traced run on
      {!Runner.Engine} driving the same adversarial digest protocol — same
      outcome, counters, metrics, per-node feedback digests, and byte-equal
      JSONL traces. The untraced sharded run on the soa backend agrees with
      the traced one on everything but the trace.

   2. Shard invariance: {!Soa.run} produces identical digests/counters/
      metrics at shards 1, 2 and 8, with the dense and the forced-sparse
      (dense_channel_limit = 0) counting strategies, all matching the
      classic engine.

   3. Protocol equivalence: {!Cogcast.run} on the soa backend is
      byte-equal to {!Cogcast.run} on the engine — traces, distribution
      tree, completion slot — and shard-invariant.

   4. Every machine in the registry gives the same summary and trace on
      the soa backend as on the engine. *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Dynamic = Crn_channel.Dynamic
module Engine = Crn_radio.Engine
module Soa = Crn_radio.Soa
module Action = Crn_radio.Action
module Trace = Crn_radio.Trace
module Metrics = Crn_radio.Metrics
module Jammer = Crn_radio.Jammer
module Faults = Crn_radio.Faults
module Cogcast = Crn_core.Cogcast
module Runner = Crn_radio.Runner

(* ------------------------------------------------------------------ *)
(* The adversarial digest protocol of test_determinism.ml, in both node
   shapes: every node draws a label and a broadcast/listen coin from its
   own stream each slot and folds every feedback into an order-sensitive
   digest. The two shapes must consume randomness identically and
   classify outcomes identically for the digests to agree. *)

let mix d x = (d * 1000003) lxor x

let engine_nodes ~seed ~n ~c ~digests =
  let node_rngs = Rng.split_n (Rng.create seed) n in
  Array.init n (fun i ->
      Engine.node ~id:i
        ~decide:(fun ~slot:_ ->
          let label = Rng.int node_rngs.(i) c in
          if Rng.bool node_rngs.(i) then Action.broadcast ~label ((i * 7919) + label)
          else Action.listen ~label)
        ~feedback:(fun ~slot fb ->
          let d = mix digests.(i) slot in
          digests.(i) <-
            (match fb with
            | Action.Heard { sender; msg } -> mix (mix (mix d 1) sender) msg
            | Action.Silence -> mix d 2
            | Action.Won -> mix d 3
            | Action.Lost { winner; msg } -> mix (mix (mix d 4) winner) msg
            | Action.Jammed -> mix d 5
            | Action.No_winner -> mix d 6)))

let soa_protocol ~seed ~n ~c ~digests =
  let node_rngs = Rng.split_n (Rng.create seed) n in
  let decide t ~slot:_ ~lo ~hi =
    for i = lo to hi - 1 do
      if not (Soa.is_down t i) then begin
        let label = Rng.int node_rngs.(i) c in
        if Rng.bool node_rngs.(i) then
          Soa.set_broadcast t i ~label ~msg:((i * 7919) + label)
        else Soa.set_listen t i ~label
      end
    done
  in
  let feedback t ~slot ~lo ~hi =
    for i = lo to hi - 1 do
      let d = mix digests.(i) slot in
      if Soa.heard t i then
        digests.(i) <- mix (mix (mix d 1) (Soa.sender t i)) (Soa.message t i)
      else if Soa.silent t i then digests.(i) <- mix d 2
      else if Soa.won t i then digests.(i) <- mix d 3
      else if Soa.lost t i then
        digests.(i) <- mix (mix (mix d 4) (Soa.sender t i)) (Soa.message t i)
      else if Soa.was_jammed t i then digests.(i) <- mix d 5
    done
  in
  { Soa.parallel = true; decide; feedback }

(* ------------------------------------------------------------------ *)
(* Randomized scenarios, the test_determinism recipe widened to n <= 256.
   Reactive jammers are stateful, so each run builds a fresh one. *)

type scenario = {
  n : int;
  c : int;
  availability : Dynamic.t;
  jammer : unit -> Jammer.t;
  faults : Faults.t;
  stop_at : int option;
  max_slots : int;
}

let scenario seed =
  let rng = Rng.create (77_000 + seed) in
  let n = 2 + Rng.int rng 255 in
  let c = 2 + Rng.int rng 8 in
  let k = 1 + Rng.int rng (min 3 c) in
  let spec = { Topology.n; c; k } in
  let kind =
    match seed mod 3 with
    | 0 -> Topology.Shared_core
    | 1 -> Topology.Shared_plus_random
    | _ -> Topology.Clustered
  in
  let assignment = Topology.generate kind rng spec in
  let availability =
    if seed mod 5 = 0 then Dynamic.rotating assignment else Dynamic.static assignment
  in
  let num_channels = Crn_channel.Assignment.num_channels assignment in
  let jammer () =
    match seed mod 4 with
    | 0 ->
        Jammer.random_per_node
          ~seed:(Int64.of_int (seed * 77))
          ~budget:1 ~num_channels
    | 1 -> Jammer.reactive ()
    | _ -> Jammer.none
  in
  let faults =
    if seed mod 2 = 0 then
      Faults.random_naps ~seed:(Int64.of_int (seed * 131)) ~rate:0.15
    else Faults.none
  in
  let stop_at = if seed mod 6 = 0 then Some (5 + (seed mod 7)) else None in
  { n; c; availability; jammer; faults; stop_at; max_slots = 30 }

type output = {
  out_slots : int;
  out_stopped : bool;
  out_counters : int list;
  out_trace : string;
  out_metrics : int list;
  out_digests : int array;
}

let counters_fields (c : Trace.Counters.t) =
  [
    c.Trace.Counters.slots_run;
    c.Trace.Counters.broadcasts;
    c.Trace.Counters.wins;
    c.Trace.Counters.contended;
    c.Trace.Counters.deliveries;
    c.Trace.Counters.jammed_actions;
  ]

let metrics_fields (m : Metrics.t) =
  Array.to_list m.Metrics.transmissions
  @ Array.to_list m.Metrics.receptions
  @ Array.to_list m.Metrics.awake_slots
  @ Array.to_list m.Metrics.jammed

let run_soa sc ~seed ~shards ~dense_channel_limit =
  let digests = Array.make sc.n 0 in
  let protocol = soa_protocol ~seed ~n:sc.n ~c:sc.c ~digests in
  let m = Metrics.create sc.n in
  let stop = Option.map (fun at -> fun ~slot -> slot >= at) sc.stop_at in
  let outcome =
    Soa.run ?stop ~shards ~dense_channel_limit ~jammer:(sc.jammer ())
      ~faults:sc.faults ~metrics:m ~availability:sc.availability
      ~rng:(Rng.create (seed * 17))
      ~protocol ~max_slots:sc.max_slots ()
  in
  {
    out_slots = outcome.Soa.slots_run;
    out_stopped = outcome.Soa.stopped_early;
    out_counters = counters_fields outcome.Soa.counters;
    out_trace = "";
    out_metrics = metrics_fields m;
    out_digests = digests;
  }

(* The digest protocol's engine nodes through {!Runner}: the path every
   protocol layer takes. The nodes honor the sharding contract (per-node
   streams, own-index writes), so they run sharded on the soa backend. *)
let run_runner sc ~seed ~backend ~traced =
  let digests = Array.make sc.n 0 in
  let nodes = engine_nodes ~seed ~n:sc.n ~c:sc.c ~digests in
  let tr = if traced then Some (Trace.create ()) else None in
  let m = Metrics.create sc.n in
  let stop = Option.map (fun at -> fun ~slot -> slot >= at) sc.stop_at in
  let runner =
    Runner.make ~machine_parallel:true ?trace:tr ~jammer:(sc.jammer ())
      ~faults:sc.faults ~metrics:m ~backend ~availability:sc.availability
      ~rng:(Rng.create (seed * 17))
      ()
  in
  let outcome = runner.Runner.run ?stop ~nodes ~max_slots:sc.max_slots () in
  {
    out_slots = outcome.Runner.slots_run;
    out_stopped = outcome.Runner.stopped_early;
    out_counters = counters_fields outcome.Runner.counters;
    out_trace = (match tr with Some tr -> Trace.to_jsonl tr | None -> "");
    out_metrics = metrics_fields m;
    out_digests = digests;
  }

let soa_backend ?dense_channel_limit shards =
  Runner.Soa { shards; dense_channel_limit }

let diff label a b =
  if a.out_slots <> b.out_slots then
    Some (Printf.sprintf "%s: slots_run %d <> %d" label a.out_slots b.out_slots)
  else if a.out_stopped <> b.out_stopped then
    Some (label ^ ": stopped_early differs")
  else if a.out_counters <> b.out_counters then Some (label ^ ": counters differ")
  else if a.out_metrics <> b.out_metrics then Some (label ^ ": metrics differ")
  else if a.out_digests <> b.out_digests then
    Some (label ^ ": feedback digests differ")
  else if a.out_trace <> b.out_trace then Some (label ^ ": trace bytes differ")
  else None

let first_diff checks =
  List.fold_left
    (fun acc check -> match acc with Some _ -> acc | None -> check ())
    None checks

(* Claim 1: a traced run on the soa backend = a traced run on the engine,
   byte for byte, at every shard count. *)
let prop_traced_equivalence seed =
  let sc = scenario seed in
  let engine = run_runner sc ~seed ~backend:Runner.Engine ~traced:true in
  first_diff
    (List.map
       (fun shards () ->
         diff
           (Printf.sprintf "traced shards=%d" shards)
           engine
           (run_runner sc ~seed ~backend:(soa_backend shards) ~traced:true))
       [ 1; 2; 8 ])

(* ...and the untraced sharded soa run agrees with the traced one on
   everything the trace does not carry: the invariant a traced audit of an
   untraced run relies on. *)
let prop_traced_matches_untraced seed =
  let sc = scenario seed in
  let traced = run_runner sc ~seed ~backend:(soa_backend 1) ~traced:true in
  let traced = { traced with out_trace = "" } in
  first_diff
    (List.map
       (fun (label, backend) () ->
         diff label traced (run_runner sc ~seed ~backend ~traced:false))
       [
         ("untraced shards=1", soa_backend 1);
         ("untraced shards=2", soa_backend 2);
         ("untraced shards=8", soa_backend 8);
         ("untraced shards=8 sparse", soa_backend ~dense_channel_limit:0 8);
       ])

(* Claim 2: the fast path matches the engine at every shard count and
   with both counting strategies. *)
let prop_shard_invariance seed =
  let sc = scenario seed in
  let engine = run_runner sc ~seed ~backend:Runner.Engine ~traced:false in
  let variants =
    [
      ("shards=1 dense", 1, 4096);
      ("shards=2 dense", 2, 4096);
      ("shards=8 dense", 8, 4096);
      ("shards=1 sparse", 1, 0);
      ("shards=8 sparse", 8, 0);
    ]
  in
  first_diff
    (List.map
       (fun (label, shards, dense_channel_limit) () ->
         diff label engine (run_soa sc ~seed ~shards ~dense_channel_limit))
       variants)

(* Claim 3: COGCAST on the soa backend = COGCAST on the engine — traces,
   tree, completion — and the untraced sharded run reproduces the same
   tree at shards 1/2/8. *)

let cogcast_classic ~seed ~n ~c ~k =
  let rng = Rng.create seed in
  let assignment = Topology.shared_core rng { Topology.n; c; k } in
  let tr = Trace.create () in
  let r =
    Cogcast.run ~trace:tr ~source:0
      ~availability:(Dynamic.static assignment)
      ~rng ~max_slots:400 ()
  in
  (r, Trace.to_jsonl tr)

let cogcast_on_soa ~seed ~n ~c ~k ~traced ~shards =
  let rng = Rng.create seed in
  let assignment = Topology.shared_core rng { Topology.n; c; k } in
  let tr = if traced then Some (Trace.create ()) else None in
  let r =
    Cogcast.run ?trace:tr ~backend:(soa_backend shards) ~source:0
      ~availability:(Dynamic.static assignment)
      ~rng ~max_slots:400 ()
  in
  (r, match tr with Some tr -> Trace.to_jsonl tr | None -> "")

let tree_fields (r : Cogcast.result) =
  ( r.Cogcast.completed_at,
    r.Cogcast.slots_run,
    r.Cogcast.informed_count,
    Array.to_list r.Cogcast.parent,
    Array.to_list r.Cogcast.informed_at,
    Array.to_list r.Cogcast.informed_label,
    counters_fields r.Cogcast.counters )

let prop_cogcast_equivalence seed =
  let n = 2 + (seed mod 120) and c = 6 and k = 2 in
  let classic, classic_trace = cogcast_classic ~seed ~n ~c ~k in
  let soa, soa_trace = cogcast_on_soa ~seed ~n ~c ~k ~traced:true ~shards:1 in
  if classic_trace <> soa_trace then Some "cogcast traces differ"
  else if tree_fields classic <> tree_fields soa then
    Some "cogcast results differ"
  else
    List.fold_left
      (fun acc shards ->
        match acc with
        | Some _ -> acc
        | None ->
            let fast, _ = cogcast_on_soa ~seed ~n ~c ~k ~traced:false ~shards in
            if tree_fields classic <> tree_fields fast then
              Some (Printf.sprintf "cogcast diverges at shards=%d" shards)
            else None)
      None [ 1; 2; 8 ]

(* Claim 4 — the universal-backend audit: every of_machine registry entry
   produces a byte-equal summary on the soa backend at shards {1, 2, 8},
   with both occupancy strategies (dense and forced-sparse), and a
   byte-equal traced run on the soa backend — all against the same entry
   on the classic engine backend. Scenarios randomize dims,
   topology and a nap schedule; each run gets a fresh rng from the same
   seed, so any divergence is the backend's. *)

let prop_registry_machines seed =
  let scenario_rng = Rng.create (311_000 + seed) in
  let n = 2 + Rng.int scenario_rng 62 in
  let c = 2 + Rng.int scenario_rng 7 in
  let k = 1 + Rng.int scenario_rng (min 3 c) in
  let kind =
    match seed mod 3 with
    | 0 -> Topology.Shared_core
    | 1 -> Topology.Shared_plus_random
    | _ -> Topology.Clustered
  in
  let assignment = Topology.generate kind scenario_rng { Topology.n; c; k } in
  let faults =
    if seed mod 2 = 0 then
      Some (Faults.random_naps ~seed:(Int64.of_int (seed * 131)) ~rate:0.1)
    else None
  in
  let run name ~backend ~shards ~traced =
    let proto = Option.get (Crn_proto.Registry.find name) in
    let tr = if traced then Some (Trace.create ()) else None in
    let env =
      Crn_proto.Protocol.env ?faults ?trace:tr ~backend ~shards ~k
        ~availability:(Dynamic.static assignment)
        ~rng:(Rng.create (seed * 17))
        ()
    in
    let s = Crn_proto.Protocol.run proto env in
    ( Crn_stats.Json.to_string (Crn_proto.Protocol.summary_json s),
      match tr with Some tr -> Trace.to_jsonl tr | None -> "" )
  in
  let soa dense_channel_limit = Runner.Soa { shards = 1; dense_channel_limit } in
  let variants =
    [
      ("shards=1 dense", 1, soa None);
      ("shards=2 dense", 2, soa None);
      ("shards=8 dense", 8, soa None);
      ("shards=2 sparse", 2, soa (Some 0));
      ("shards=8 sparse", 8, soa (Some 0));
    ]
  in
  List.fold_left
    (fun acc name ->
      match acc with
      | Some _ -> acc
      | None -> (
          let engine_summary, _ =
            run name ~backend:Runner.Engine ~shards:1 ~traced:false
          in
          let fast_mismatch =
            List.fold_left
              (fun acc (label, shards, backend) ->
                match acc with
                | Some _ -> acc
                | None ->
                    let s, _ = run name ~backend ~shards ~traced:false in
                    if s <> engine_summary then
                      Some (Printf.sprintf "%s: soa %s summary differs" name label)
                    else None)
              None variants
          in
          match fast_mismatch with
          | Some _ as m -> m
          | None ->
              let es, et =
                run name ~backend:Runner.Engine ~shards:1 ~traced:true
              in
              let ss, st = run name ~backend:(soa None) ~shards:2 ~traced:true in
              if et <> st then Some (name ^ ": traced soa trace differs")
              else if es <> ss then Some (name ^ ": traced soa summary differs")
              else None))
    None
    (Crn_proto.Registry.machine_names ())

(* Rejection contract: shards > 1 on a backend that cannot shard must
   raise, never be silently ignored. *)
let test_shards_rejected () =
  let rng = Rng.create 7 in
  let assignment = Topology.shared_core rng { Topology.n = 16; c = 4; k = 2 } in
  let availability = Dynamic.static assignment in
  let raises name backend =
    let env =
      Crn_proto.Protocol.env ~backend ~shards:2 ~availability
        ~rng:(Rng.create 7) ()
    in
    match Crn_proto.Protocol.run (Crn_proto.Registry.find_exn name) env with
    | exception Invalid_argument _ -> ()
    | _ ->
        Alcotest.failf "%s accepted shards=2 on the %s backend" name
          (Runner.backend_name backend)
  in
  List.iter
    (fun name -> raises name Runner.Engine)
    (Crn_proto.Registry.machine_names ());
  raises "cogcast" Runner.Engine;
  raises "cogcomp" Runner.Engine;
  raises "cogcast" (Runner.Soa { shards = 3; dense_channel_limit = None });
  (* ...while the soa backend honors the same request. *)
  let env =
    Crn_proto.Protocol.env
      ~backend:(Runner.Soa { shards = 1; dense_channel_limit = None })
      ~shards:2 ~availability ~rng:(Rng.create 7) ()
  in
  let s =
    Crn_proto.Protocol.run (Crn_proto.Registry.find_exn "seq_scan") env
  in
  Alcotest.(check bool) "seq_scan completes on soa shards=2" true
    (s.Crn_proto.Protocol.completed)

let seed_gen = Prop.int_range 1 100_000

let test_traced () =
  Prop.check ~count:40 ~name:"soa traced = engine traced" seed_gen
    prop_traced_equivalence

let test_traced_untraced () =
  Prop.check ~count:30 ~name:"soa traced = soa untraced sharded" seed_gen
    prop_traced_matches_untraced

let test_shards () =
  Prop.check ~count:30 ~name:"soa fast path shard/strategy invariant" seed_gen
    prop_shard_invariance

let test_registry_machines () =
  Prop.check ~count:12 ~name:"registry machines: soa = engine" seed_gen
    prop_registry_machines

let test_cogcast () =
  Prop.check ~count:25 ~name:"cogcast on soa = cogcast" seed_gen
    prop_cogcast_equivalence

(* The registry entry behind [--backend soa --shards N]: same summary as
   classic cogcast. *)
let test_registry_entry () =
  let module Protocol = Crn_proto.Protocol in
  let module Registry = Crn_proto.Registry in
  let summary backend shards =
    let rng = Rng.create 99 in
    let assignment = Topology.shared_core rng { Topology.n = 64; c = 8; k = 2 } in
    let env =
      Protocol.env ~backend ~shards ~availability:(Dynamic.static assignment)
        ~rng ()
    in
    let s = Protocol.run (Option.get (Registry.find "cogcast")) env in
    (s.Protocol.slots_run, s.Protocol.completed_at, s.Protocol.coverage)
  in
  let classic = summary Runner.Engine 1 in
  List.iter
    (fun shards ->
      Alcotest.(check bool)
        (Printf.sprintf "registry cogcast soa shards=%d = cogcast" shards)
        true
        (summary (soa_backend 1) shards = classic))
    [ 1; 2; 8 ]

(* COGCAST on the one-shard SoA backend in its steady state, where every
   node is informed and broadcasts: the per-node label draw, the decision
   and the log-free feedback allocate nothing. What is left is the engine's
   feedback to losing broadcasters ([Lost] carries the winner and the
   message: 3 words), which a lost broadcast receives by the paper's
   collision model. Two runs differing only in their slot budget share all
   setup, so their difference is the steady state alone. *)
let steady_state_words_bound = 3.0

let test_steady_state_allocation () =
  let n = 10_000 in
  let availability =
    Dynamic.static
      (Topology.shared_plus_random (Rng.create 5) { Topology.n; c = 16; k = 4 })
  in
  let backend = soa_backend 1 in
  let words max_slots =
    let w0 = Gc.minor_words () in
    let r =
      Cogcast.run ~backend ~stop_when_complete:false ~source:0 ~availability
        ~rng:(Rng.create 6) ~max_slots ()
    in
    let w = Gc.minor_words () -. w0 in
    Alcotest.(check int) "all informed" n r.Cogcast.informed_count;
    w
  in
  let short = 20 and long = 40 in
  let per_node_slot =
    (words long -. words short) /. float_of_int (n * (long - short))
  in
  if per_node_slot > steady_state_words_bound then
    Alcotest.failf "steady state allocates %.3f words/node-slot (bound %.2f)"
      per_node_slot steady_state_words_bound

let () =
  Alcotest.run "soa"
    [
      ( "differential",
        [
          Alcotest.test_case "traced soa byte-equal to engine" `Quick test_traced;
          Alcotest.test_case "fast path shard & strategy invariant" `Quick
            test_shards;
          Alcotest.test_case "traced soa = untraced sharded soa" `Quick
            test_traced_untraced;
        ] );
      ( "registry audit",
        [
          Alcotest.test_case "every of_machine entry: soa = engine" `Quick
            test_registry_machines;
          Alcotest.test_case "shards > 1 rejected off the soa backend" `Quick
            test_shards_rejected;
        ] );
      ( "cogcast",
        [
          Alcotest.test_case "cogcast on soa equals cogcast" `Quick test_cogcast;
          Alcotest.test_case "registry entry honors env.shards" `Quick
            test_registry_entry;
          Alcotest.test_case "steady state allocation bound" `Quick
            test_steady_state_allocation;
        ] );
    ]
