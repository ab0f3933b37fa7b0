(* The repository benchmark: three workloads driven through the libraries'
   public functions, in one process on one domain.

     crn_perf.exe --workload cogcast-1m|paper-mix|traced-audit
                  [--seed N] [--seconds S] [--trace 0|1]

   Every workload repeats one fixed unit of work (a repetition) for
   [--seconds]; each repetition rebuilds its inputs from the seed, so all
   repetitions do identical work and every time metric is a median over
   them. With [--trace 0] the last line of standard output is the
   end-to-end result. With [--trace 1] the repetitions alternate spans off
   and on, then the companion units and the layer probes run, and the last
   line holds the per-layer metrics. A human-readable report goes to
   standard error.
   Spans are written to [.perfbench/spans-<workload>-<seed>.jsonl].

   BENCHMARK.json gates cogcast-1m and paper-mix on setup_s and the two
   exact counts. The other end-to-end times, and the traced-audit workload,
   swung too far between runs on the host the benchmark was defined on to
   carry a bound; they are still measured and reported on standard error,
   and the trace layer is measured in every traced run.
   perfbench/interactions.json records why each workload exists, how steady
   each metric was, and which layer metric should move which end-to-end
   metric. *)

open Crn_prng
open Crn_channel
module Protocol = Crn_proto.Protocol
module Registry = Crn_proto.Registry
module Trace = Crn_radio.Trace
module Json = Crn_stats.Json
module Pool = Crn_exec.Pool
module Trials = Crn_exec.Trials

let now = Unix.gettimeofday
let default_seed = 1
let out_dir = ".perfbench"

(* ---- spans ---- *)

(* One span per call into a layer: [rep] is the repetition (-1 for the
   companion units and probes of a traced run), [cell] names the trial's
   protocol and size when the span belongs to one. [words] is the number of
   words allocated (minor + direct major) while the span was open. *)
type span = {
  id : int;
  name : string;
  parent : int;
  rep : int;
  cell : string;
  t0 : float;
  mutable t1 : float;
  mutable words : float;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let cur_rep = ref 0
let cur_cell = ref ""

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let s =
      {
        id = !next_id;
        name;
        parent = (match !open_spans with p :: _ -> p | [] -> -1);
        rep = !cur_rep;
        cell = !cur_cell;
        t0 = now ();
        t1 = nan;
        words = allocated ();
      }
    in
    open_spans := s.id :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        s.words <- allocated () -. s.words;
        open_spans := List.tl !open_spans;
        spans := s :: !spans)
      f
  end

(* Named counts recorded beside the spans (events, bytes, GC deltas). *)
type count = { c_name : string; c_rep : int; c_cell : string; c_value : float }

let counts : count list ref = ref []

let count name value =
  if !tracing then
    counts :=
      { c_name = name; c_rep = !cur_rep; c_cell = !cur_cell; c_value = value } :: !counts

(* ---- statistics ---- *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

(* ---- trial records ---- *)

(* The simulate phase of one trial: host time and GC deltas. *)
type sim = {
  sim_s : float;
  words : float;  (** Minor-heap words allocated. *)
  promoted : float;
  minor_gcs : int;
  major_gcs : int;
}

let simulate f =
  let q0 = Gc.quick_stat () in
  let t0 = now () in
  let v = span "run" f in
  let sim_s = now () -. t0 in
  let q1 = Gc.quick_stat () in
  ( v,
    {
      sim_s;
      words = q1.minor_words -. q0.minor_words;
      promoted = q1.promoted_words -. q0.promoted_words;
      minor_gcs = q1.minor_collections - q0.minor_collections;
      major_gcs = q1.major_collections - q0.major_collections;
    } )

(* What every trial reports, traced or not; the end-to-end metrics are
   computed from these alone. [summary] is the rendered [summary_json]. *)
type trial = {
  cell : string;
  n : int;
  setup_s : float;
  total_s : float;
  node_slots : float;
  sim : sim;
  failures : string list;
  summary : string;
}

let c = 16
let k = 4

let build_inputs ~rng n =
  let w0 = if !tracing then allocated () else 0.0 in
  let assignment =
    span "channel.topology" (fun () ->
        Topology.shared_plus_random (Rng.split rng) { Topology.n; c; k })
  in
  count "channel.topology_nodes" (float_of_int n);
  if !tracing then count "channel.topology_words" (allocated () -. w0);
  span "channel.dynamic" (fun () -> Dynamic.static assignment)

let summary_string s =
  span "stats.summary" (fun () -> Json.to_string (Protocol.summary_json s))

let soa = Crn_radio.Runner.Soa { shards = 1; dense_channel_limit = None }

(* The [crn_sim run --trace FILE --check] stages after a traced run: the
   untraced twin, every trace checker, the JSONL write and the read back. *)
let checkers =
  Trace.Check.
    [
      ("one_winner", one_winner);
      ("informed_tree", informed_tree);
      ("phase4_drain", phase4_drain);
      ("exactly_once_drain", exactly_once_drain);
      ("rumor_causality", rumor_causality);
    ]

(* [Trace.Check.all] is the concatenation of the five checkers; a traced run
   calls them one by one so that each gets its own span. *)
let check_all tr =
  if !tracing then
    List.concat_map
      (fun (name, check) -> span ("trace.check." ^ name) (fun () -> check tr))
      checkers
  else Trace.Check.all tr

let audit_stages proto twin tr ~summary ~sim_s ~node_slots =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let t0 = now () in
  let s = span "trace.twin" (fun () -> Protocol.run proto twin) in
  count "trace.record_overhead" (sim_s -. (now () -. t0));
  if summary_string s <> summary then
    fail "traced summary differs from its untraced twin";
  let events = Trace.length tr in
  count "trace.events" (float_of_int events);
  count "trace.node_slots" (float_of_int node_slots);
  (match span "trace.check" (fun () -> check_all tr) with
  | [] -> ()
  | v :: _ as vs ->
      fail "%d trace violation(s), first: %s" (List.length vs)
        (Format.asprintf "%a" Trace.Check.pp_violation v));
  let path =
    Filename.concat out_dir (Printf.sprintf "trace-%d.jsonl" (Unix.getpid ()))
  in
  span "trace.write" (fun () -> Trace.write_jsonl ~path tr);
  let back =
    span "trace.read" (fun () ->
        let text = In_channel.with_open_bin path In_channel.input_all in
        count "trace.bytes" (float_of_int (String.length text));
        Trace.of_jsonl text)
  in
  Sys.remove path;
  (match back with
  | Ok t when Trace.length t = events -> ()
  | Ok t -> fail "read back %d events, wrote %d" (Trace.length t) events
  | Error m -> fail "JSONL read back failed: %s" m);
  List.rev !failures

(* One trial through the registry: setup, [Protocol.run], the output checks
   and the summary rendering. With [audit] the run records an event trace,
   and [audit_stages] (the traced-audit checks) runs after it. *)
let registry_trial ?(backend = Crn_radio.Runner.Engine) ?(audit = false)
    ~cell ~name ~n rng =
  cur_cell := cell;
  span "trial" @@ fun () ->
  let t0 = now () in
  let trace = if audit then Some (Trace.create ()) else None in
  let env =
    span "setup" (fun () ->
        let availability = build_inputs ~rng n in
        Protocol.env ?trace ~k ~backend ~availability ~rng:(Rng.copy rng) ())
  in
  let setup_s = now () -. t0 in
  let proto = Registry.find_exn name in
  let s, sim = simulate (fun () -> Protocol.run proto env) in
  let node_slots = n * s.Protocol.slots_run in
  let failures =
    span "check" (fun () ->
        if s.completed then []
        else [ Printf.sprintf "not completed in %d slots" s.slots_run ])
  in
  let summary = summary_string s in
  let failures =
    match trace with
    | None -> failures
    | Some tr ->
        let twin = { env with trace = None; rng = Rng.copy rng } in
        failures
        @ audit_stages proto twin tr ~summary ~sim_s:sim.sim_s ~node_slots
  in
  let node_slots = float_of_int node_slots in
  { cell; n; setup_s; total_s = now () -. t0; node_slots; sim; failures; summary }

(* Runs [f] over [trials] trials of one cell through [Trials.run] on the
   one-job pool, and records the dispatch cost beside the trial bodies. *)
let pool = lazy (Pool.create ~jobs:1)

let cell_trials ~trials ~seed f =
  let t0 = now () in
  let rs = Trials.run ~pool:(Lazy.force pool) ~trials ~seed f in
  let wall = now () -. t0 in
  let rs = Array.to_list rs in
  count "exec.dispatch" (wall -. sum (List.map (fun r -> r.total_s) rs));
  rs

(* ---- workloads ---- *)

type workload = {
  wname : string;
  probe_n : int;  (** The workload's largest n, which sizes the probes. *)
  probe_backend : Crn_radio.Runner.backend;
  warmup : (seed:int -> trial list) option;
      (** An untimed first unit, where one is short enough to afford. *)
  repetition : seed:int -> trial list;
  pinned : string;  (** Digest of one repetition at [default_seed]. *)
}

(* cogcast-1m: COGCAST at n = 10^6 on the one-shard SoA backend, for a fixed
   slot budget with the completion stop disabled. Every node is informed
   after two slots, so most of the budget is the steady state in which
   every node broadcasts. *)
let cogcast_1m_slots = 10

let cogcast_1m ~seed =
  let n = 1_000_000 in
  cell_trials ~trials:1 ~seed (fun rng ->
      let cell = "core.cogcast@1000000" in
      cur_cell := cell;
      span "trial" @@ fun () ->
      let t0 = now () in
      let availability = span "setup" (fun () -> build_inputs ~rng n) in
      let setup_s = now () -. t0 in
      let r, sim =
        simulate (fun () ->
            Crn_core.Cogcast.run ~backend:soa ~stop_when_complete:false
              ~source:0 ~availability ~rng ~max_slots:cogcast_1m_slots ())
      in
      let failures =
        span "check" (fun () ->
            if r.informed_count = n then []
            else
              [ Printf.sprintf "informed %d of %d nodes" r.informed_count n ])
      in
      let summary =
        {
          Protocol.protocol = "cogcast";
          slots_run = r.slots_run;
          completed = r.informed_count = n;
          completed_at = r.completed_at;
          coverage = float_of_int r.informed_count /. float_of_int n;
          raw_rounds = r.raw_rounds;
          failed_sessions = r.failed_sessions;
          counters = r.counters;
          detail = Json.Obj [];
        }
      in
      let summary = summary_string summary in
      let node_slots = float_of_int (n * r.slots_run) in
      { cell; n; setup_s; total_s = now () -. t0; node_slots; sim; failures; summary })

(* paper-mix: the 11 registry entries at n = 64 and 256 on the default
   engine, equal trials per cell, run back to back. *)
let entries =
  [
    ("core", "cogcast");
    ("core", "cogcomp");
    ("core", "cogcomp_robust");
    ("rendezvous", "broadcast_baseline");
    ("rendezvous", "aggregation_baseline");
    ("rendezvous", "aggregation_baseline_honest");
    ("rendezvous", "random_hop");
    ("rendezvous", "seq_scan");
    ("rendezvous", "deterministic");
    ("workload", "gossip");
    ("workload", "push_sum");
  ]

let mix_ns = [ 64; 256 ]
let mix_trials_per_cell = 16
let cell_name (lib, name) n = Printf.sprintf "%s.%s@%d" lib name n

let paper_mix_pass ~trials ~seed =
  List.concat
    (List.mapi
       (fun i (n, entry) ->
         cell_trials ~trials ~seed:((seed * 7919) + i) (fun rng ->
             registry_trial ~cell:(cell_name entry n) ~name:(snd entry) ~n rng))
       (List.concat_map (fun n -> List.map (fun e -> (n, e)) entries) mix_ns))

(* traced-audit: the [crn_sim run --trace FILE --check] path, on COGCOMP
   (all four phases, every checker sees events) and on COGCAST through the
   SoA traced sequential path. *)
let audit_cells =
  [ ("cogcomp", 256, Crn_radio.Runner.Engine); ("cogcast", 20_000, soa) ]

let audit_trials_per_cell = 2

let traced_audit ~trials ~seed =
  List.concat
    (List.mapi
       (fun i (name, n, backend) ->
         cell_trials ~trials ~seed:((seed * 7919) + i) (fun rng ->
             registry_trial ~backend ~audit:true
               ~cell:(cell_name ("core", name) n) ~name ~n rng))
       audit_cells)

let workloads =
  [
    {
      wname = "cogcast-1m";
      probe_n = 1_000_000;
      probe_backend = soa;
      warmup = None;
      repetition = cogcast_1m;
      pinned = "defd23a11ca892fd8cd5561c8a200a9a";
    };
    {
      wname = "paper-mix";
      probe_n = 256;
      probe_backend = Crn_radio.Runner.Engine;
      warmup = Some (paper_mix_pass ~trials:1);
      repetition = paper_mix_pass ~trials:mix_trials_per_cell;
      pinned = "29b114d5d3a18b6ea393644a21a33775";
    };
    {
      wname = "traced-audit";
      probe_n = 20_000;
      probe_backend = soa;
      warmup = Some (traced_audit ~trials:1);
      repetition = traced_audit ~trials:audit_trials_per_cell;
      pinned = "d2b388f736a40b25f61953121bf90e5d";
    };
  ]

(* ---- the repetition loop ---- *)

(* [peak_words] is the top heap size when the repetition ended: after the
   first one it covers the warm-up and one full unit of work. *)
type rep = { wall_s : float; trials : trial list; peak_words : float; traced : bool }

let digest_of trials =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (fun t -> t.summary) trials)))

(* Runs repetitions of [w] for [seconds]: another repetition starts only
   while one more of the mean length so far still fits, so a run ends close
   to [seconds] however long a repetition takes. Each repetition starts from
   a compacted heap, so all of them see the same collector state. With
   [spans], repetitions alternate untraced and traced in the order ABBA, so
   that drift and the first repetition's fresh heap weigh on both sides of
   the span overhead alike; at least one of each runs. *)
let measure ?(spans = false) w ~seed ~seconds =
  let reps = ref [] in
  let start = now () in
  let fits () =
    let finished = float_of_int (List.length !reps) in
    finished < (if spans then 2.0 else 1.0)
    || (now () -. start) *. (finished +. 1.0) /. finished <= seconds
  in
  while fits () do
    cur_rep := List.length !reps;
    tracing := spans && (!cur_rep + 1) land 2 = 2;
    Gc.compact ();
    let t0 = now () in
    let trials = span "repetition" (fun () -> w.repetition ~seed) in
    let wall_s = now () -. t0 in
    let peak_words = float_of_int (Gc.quick_stat ()).top_heap_words in
    reps := { wall_s; trials; peak_words; traced = !tracing } :: !reps
  done;
  tracing := false;
  List.rev !reps

type metric = { metric : string; unit : string; value : float }

let m metric unit value = { metric; unit; value }

(* ---- layer probes (traced run only) ---- *)

let probe_rng_int ~draws =
  let r = Rng.create 99 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  for _ = 1 to draws do
    acc := !acc + Rng.int r c
  done;
  let dt = now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  (dt /. float_of_int draws *. 1e9, words /. float_of_int draws)

let fixed_schedule_nodes n =
  let listen = Array.init c (fun label -> Crn_radio.Action.listen ~label) in
  let send = Array.init c (fun label -> Crn_radio.Action.broadcast ~label 0) in
  Array.init n (fun id ->
      Crn_radio.Engine.node ~id
        ~decide:(fun ~slot ->
          let label = (id + slot) mod c in
          if ((3 * id) + slot) land 7 = 0 then send.(label) else listen.(label))
        ~feedback:(fun ~slot:_ _ -> ()))

(* Long-minus-short differencing: [run slots] is timed at two budgets and
   the difference, per slot, cancels the per-run setup. *)
let per_slot ~short ~long run =
  let timed slots =
    Gc.compact ();
    let w0 = Gc.minor_words () in
    let t0 = now () in
    run slots;
    (now () -. t0, Gc.minor_words () -. w0)
  in
  let ts, ws = timed short in
  let tl, wl = timed long in
  let d = float_of_int (long - short) in
  ((tl -. ts) /. d, (wl -. ws) /. d)

let probes w ~seed =
  cur_rep := -1;
  cur_cell := "probe";
  let n = w.probe_n in
  let fn = float_of_int n in
  let layer = ref [] in
  let add name unit v = layer := m name unit v :: !layer in
  let draws = 2_000_000 in
  let int_ns, int_words = span "probe.prng.int" (fun () -> probe_rng_int ~draws) in
  add "prng.int_ns" "ns" int_ns;
  add "prng.int_words" "words" int_words;
  let t0 = now () in
  ignore (span "probe.prng.split" (fun () -> Rng.split_n (Rng.create seed) n));
  add "prng.split_ns" "ns" ((now () -. t0) /. fn *. 1e9);
  let availability =
    span "probe.setup" (fun () -> build_inputs ~rng:(Rng.create seed) n)
  in
  (* Enough slots that the difference spans about 2 * 10^6 node-slots. *)
  let long = max 6 (2_000_000 / n) in
  let short = long / 3 in
  let cogcast slots =
    ignore
      (Crn_core.Cogcast.run ~backend:w.probe_backend ~stop_when_complete:false
         ~source:0 ~availability ~rng:(Rng.create seed) ~max_slots:slots ())
  in
  let t0 = now () in
  span "probe.core.cogcast_init" (fun () -> cogcast 0);
  add "core.cogcast_init_s" "s" (now () -. t0);
  let s, wds = span "probe.core.cogcast_slot" (fun () -> per_slot ~short ~long cogcast) in
  add "core.cogcast_slot_ms" "ms" (s *. 1e3);
  add "core.cogcast_slot_words_per_node" "words" (wds /. fn);
  let nodes = fixed_schedule_nodes n in
  let s, wds =
    span "probe.radio.engine" (fun () ->
        per_slot ~short ~long (fun slots ->
            ignore
              (Crn_radio.Engine.run ~availability ~rng:(Rng.create seed) ~nodes
                 ~max_slots:slots ())))
  in
  add "radio.engine_ns_per_node_slot" "ns" (s /. fn *. 1e9);
  add "radio.engine_words_per_node_slot" "words" (wds /. fn);
  let protocol = Crn_radio.Soa_adapter.protocol nodes in
  let s, wds =
    span "probe.radio.soa" (fun () ->
        per_slot ~short ~long (fun slots ->
            ignore
              (Crn_radio.Soa.run ~shards:1 ~availability ~rng:(Rng.create seed)
                 ~protocol ~max_slots:slots ())))
  in
  add "radio.soa_ns_per_node_slot" "ns" (s /. fn *. 1e9);
  add "radio.soa_words_per_node_slot" "words" (wds /. fn);
  List.rev !layer

(* ---- metrics ---- *)

let trials_of reps = List.concat_map (fun r -> r.trials) reps
let ratio num den xs = sum (List.map num xs) /. sum (List.map den xs)

let end_to_end reps =
  let trials = trials_of reps in
  let per_rep f = median (List.map f reps) in
  let trial_ms = List.map (fun t -> t.total_s *. 1e3) trials in
  let first = (List.hd reps).trials in
  (* A percentile is only reported with ten trials beyond it: with fewer
     than 100 trials "p90" falls back to the highest percentile that keeps
     ten beyond it, and to the median below 20 trials. *)
  let tail_q = Float.max 0.5 (Float.min 0.9 (1.0 -. (10.0 /. float_of_int (List.length trials)))) in
  if tail_q < 0.9 then
    Printf.eprintf "note: %d trials, so trial_ms_p90 reports the %.0fth percentile\n"
      (List.length trials) (tail_q *. 100.0);
  [
    m "setup_s" "s" (per_rep (fun r -> sum (List.map (fun t -> t.setup_s) r.trials)));
    m "wall_s" "s" (per_rep (fun r -> r.wall_s));
    m "node_slots_per_s" "node-slots/s"
      (ratio (fun t -> t.node_slots) (fun t -> t.sim.sim_s) trials);
    m "minor_words_per_node_slot" "words"
      (ratio (fun t -> t.sim.words) (fun t -> t.node_slots) first);
    m "peak_heap_mb" "MB" ((List.hd reps).peak_words *. float_of_int (Sys.word_size / 8) /. 1e6);
    m "trial_ms_p50" "ms" (median trial_ms);
    m "trial_ms_p90" "ms" (quantile tail_q trial_ms);
  ]

(* A layer's spans and counts come from the workload's own repetitions when
   it exercises that layer, and from the companion units (rep -1) when it
   does not. *)
let own_or_companion rep_of xs =
  match List.filter (fun x -> rep_of x >= 0) xs with
  | [] -> List.filter (fun x -> rep_of x < 0) xs
  | own -> own

let spans_named name =
  own_or_companion (fun s -> s.rep) (List.filter (fun s -> s.name = name) !spans)

let counts_named name =
  own_or_companion (fun c -> c.c_rep) (List.filter (fun c -> c.c_name = name) !counts)

(* Median over repetitions of the per-repetition total. *)
let median_rep_total rep_of value xs =
  let reps = List.sort_uniq compare (List.map rep_of xs) in
  median
    (List.map
       (fun r ->
         sum (List.map value (List.filter (fun x -> rep_of x = r) xs)))
       reps)

let span_s name =
  median_rep_total (fun s -> s.rep) (fun s -> s.t1 -. s.t0) (spans_named name)

let count_total name =
  median_rep_total (fun c -> c.c_rep) (fun c -> c.c_value) (counts_named name)

let count_sum name = sum (List.map (fun c -> c.c_value) (counts_named name))

let per_layer ~traced ~companion =
  let own = trials_of traced in
  let per_rep f = median (List.map (fun r -> float_of_int (f r)) traced) in
  let gc_sum f r = List.fold_left (fun a t -> a + f t) 0 r.trials in
  let entry_metrics =
    List.concat_map
      (fun ((lib, name) as e) ->
        let cell = cell_name e 256 in
        let pick ts = List.filter (fun t -> t.cell = cell) ts in
        let ts = match pick own with [] -> pick companion | ts -> ts in
        let prefix = lib ^ "." ^ name in
        [
          m (prefix ^ ".trial_ms_p50") "ms"
            (median (List.map (fun t -> t.total_s *. 1e3) ts));
          m (prefix ^ ".words_per_node_slot") "words"
            (ratio (fun t -> t.sim.words) (fun t -> t.node_slots) ts);
        ])
      entries
  in
  let events = count_sum "trace.events" in
  [
    m "channel.topology_s" "s" (span_s "channel.topology");
    m "channel.topology_words_per_node" "words"
      (count_sum "channel.topology_words" /. count_sum "channel.topology_nodes");
    m "channel.dynamic_s" "s" (span_s "channel.dynamic");
    m "gc.minor_collections" "count" (per_rep (gc_sum (fun t -> t.sim.minor_gcs)));
    m "gc.major_collections" "count" (per_rep (gc_sum (fun t -> t.sim.major_gcs)));
    m "gc.promoted_words_per_node_slot" "words"
      (ratio (fun t -> t.sim.promoted) (fun t -> t.node_slots) own);
  ]
  @ entry_metrics
  @ [
      m "exec.dispatch_ms" "ms" (count_total "exec.dispatch" *. 1e3);
      m "stats.summary_ms" "ms"
        (median
           (List.map (fun s -> (s.t1 -. s.t0) *. 1e3) (spans_named "stats.summary")));
      m "trace.record_overhead_s" "s" (count_total "trace.record_overhead");
      m "trace.events" "count" (count_total "trace.events");
      m "trace.events_per_node_slot" "count"
        (events /. count_sum "trace.node_slots");
      m "trace.bytes_per_event" "B" (count_sum "trace.bytes" /. events);
      m "trace.check_s" "s" (span_s "trace.check");
    ]
  @ List.map
      (fun (c, _) ->
        m (Printf.sprintf "trace.check.%s_s" c) "s" (span_s ("trace.check." ^ c)))
      checkers
  @ [
      m "trace.write_s" "s" (span_s "trace.write");
      m "trace.read_s" "s" (span_s "trace.read");
    ]

(* ---- reporting ---- *)

let write_spans path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"rep\":%d,\"cell\":%S,\"start\":%.6f,\"end\":%.6f,\"words\":%.0f}\n"
            s.id s.parent s.name s.rep s.cell s.t0 s.t1 s.words)
        (List.rev !spans))

(* Self time: a span's duration minus its children's. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Hashtbl.replace child s.parent
        (d +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0
      in
      let total, calls =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0.0, 0)
      in
      Hashtbl.replace by_name s.name (total +. self, calls + 1))
    !spans;
  List.sort
    (fun (_, (a, _)) (_, (b, _)) -> compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* The metric names BENCHMARK.json declares under [section]: the result line
   holds exactly these, while the report on standard error shows every
   metric measured. *)
let declared section =
  let fail m =
    Printf.eprintf "BENCHMARK.json: %s\n" m;
    exit 1
  in
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error m -> fail m
  in
  match Result.map (Json.member section) (Json.of_string text) with
  | Ok (Some (Json.List ms)) ->
      List.map
        (fun m ->
          match Json.member "name" m with
          | Some (Json.String name) -> name
          | _ -> fail ("a metric of " ^ section ^ " has no name"))
        ms
  | Ok _ -> fail ("no list " ^ section)
  | Error m -> fail m

let report ~workload ~section ~attempted ~failed ~correct metrics =
  List.iter
    (fun x -> Printf.eprintf "  %-44s %14.6g %s\n" x.metric x.value x.unit)
    metrics;
  Printf.eprintf "%s: %d trials attempted, %d failed, correct=%b\n%!" workload
    attempted failed correct;
  let result =
    List.map
      (fun name ->
        match List.find_opt (fun x -> x.metric = name) metrics with
        | Some x when Float.is_finite x.value -> x
        | Some _ ->
            Printf.eprintf "metric %s is not a finite number\n" name;
            exit 1
        | None ->
            Printf.eprintf "metric %s is not measured\n" name;
            exit 1)
      (declared section)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.metric
              x.value x.unit)
          result))

(* ---- main ---- *)

let usage () =
  prerr_endline
    "usage: crn_perf.exe --workload cogcast-1m|paper-mix|traced-audit [--seed \
     N] [--seconds S] [--trace 0|1]";
  exit 2

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 in
  let traced = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s -> seed := s; parse rest
        | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s; parse rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> traced := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let seed = !seed and seconds = !seconds in
  Option.iter
    (fun warmup ->
      cur_rep := -2;
      ignore (warmup ~seed))
    w.warmup;
  let all_reps = measure ~spans:!traced w ~seed ~seconds in
  let untraced, traced_reps = List.partition (fun r -> not r.traced) all_reps in
  let companion, layer =
    if not !traced then ([], [])
    else begin
      tracing := true;
      cur_rep := -1;
      let companion =
        (if w.wname <> "paper-mix" then paper_mix_pass ~trials:2 ~seed else [])
        @ if w.wname <> "traced-audit" then traced_audit ~trials:1 ~seed else []
      in
      let layer = probes w ~seed in
      tracing := false;
      (companion, layer)
    end
  in
  let trials = trials_of all_reps @ companion in
  let failed = List.filter (fun t -> t.failures <> []) trials in
  List.iter
    (fun t -> List.iter (fun f -> Printf.eprintf "FAILED %s: %s\n" t.cell f) t.failures)
    failed;
  let digests = List.map (fun r -> digest_of r.trials) all_reps in
  let digest = List.hd digests in
  let deterministic = List.for_all (String.equal digest) digests in
  if not deterministic then prerr_endline "repetitions disagree on their summaries";
  let pinned_ok = seed <> default_seed || w.pinned = digest in
  if not pinned_ok then
    Printf.eprintf "summary digest %s differs from the pinned %s\n" digest w.pinned;
  Printf.eprintf
    "%s seed %d: %d repetitions of %.0f node-slots (wall s: %s), summary digest %s\n"
    w.wname seed (List.length all_reps)
    (sum (List.map (fun t -> t.node_slots) (List.hd all_reps).trials))
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall_s) all_reps))
    digest;
  let correct = failed = [] && deterministic && pinned_ok in
  let metrics =
    if not !traced then end_to_end untraced
    else begin
      let path =
        Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" w.wname seed)
      in
      write_spans path;
      Printf.eprintf "spans written to %s; self time by span:\n" path;
      List.iter
        (fun (name, (self, calls)) ->
          Printf.eprintf "  %-32s %10.4f s  %6d calls\n" name self calls)
        (self_times ());
      let wall reps = median (List.map (fun r -> r.wall_s) reps) in
      per_layer ~traced:traced_reps ~companion
      @ layer
      @ [ m "perfbench.span_overhead_s" "s" (wall traced_reps -. wall untraced) ]
    end
  in
  report ~workload:w.wname
    ~section:(if !traced then "per_layer" else "end_to_end")
    ~attempted:(List.length trials)
    ~failed:(List.length failed) ~correct metrics
