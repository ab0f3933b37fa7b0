(* Tests for the deterministic PRNG stack: SplitMix64, Xoshiro256** and the
   Rng distribution layer. *)

module Splitmix = Crn_prng.Splitmix
module Xoshiro = Crn_prng.Xoshiro
module Rng = Crn_prng.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- SplitMix64 ------------------------------------------------------ *)

let test_splitmix_reference () =
  (* Reference outputs for seed 0 from the canonical C implementation
     (Steele/Lea/Flood; also used by Java's SplittableRandom). *)
  let sm = Splitmix.create 0L in
  let expected =
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]
  in
  List.iter
    (fun e -> Alcotest.(check int64) "splitmix64(seed=0) stream" e (Splitmix.next sm))
    expected

let test_splitmix_determinism () =
  let a = Splitmix.create 12345L and b = Splitmix.create 12345L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_splitmix_copy () =
  let a = Splitmix.create 7L in
  ignore (Splitmix.next a);
  let b = Splitmix.copy a in
  Alcotest.(check int64) "copy replays" (Splitmix.next a) (Splitmix.next b)

let test_splitmix_split_independent () =
  let a = Splitmix.create 7L in
  let b = Splitmix.split a in
  let xs = Array.init 32 (fun _ -> Splitmix.next a) in
  let ys = Array.init 32 (fun _ -> Splitmix.next b) in
  check "split streams differ" true (xs <> ys)

(* --- Xoshiro256** ----------------------------------------------------- *)

let test_xoshiro_determinism () =
  let a = Xoshiro.create 99L and b = Xoshiro.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed same stream" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_xoshiro_copy () =
  let a = Xoshiro.create 5L in
  for _ = 1 to 10 do ignore (Xoshiro.next a) done;
  let b = Xoshiro.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy replays" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_xoshiro_jump_disjoint () =
  (* After a jump the stream should not collide with the original prefix. *)
  let a = Xoshiro.create 3L in
  let prefix = Array.init 1000 (fun _ -> Xoshiro.next a) in
  let b = Xoshiro.create 3L in
  Xoshiro.jump b;
  let jumped = Array.init 1000 (fun _ -> Xoshiro.next b) in
  let seen = Hashtbl.create 2048 in
  Array.iter (fun x -> Hashtbl.replace seen x ()) prefix;
  let collisions =
    Array.fold_left (fun acc x -> if Hashtbl.mem seen x then acc + 1 else acc) 0 jumped
  in
  check_int "no collisions between jumped substreams" 0 collisions

(* --- Rng -------------------------------------------------------------- *)

let test_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  (* Coarse chi-square-style check: each of 8 buckets should get close to
     12.5% of 80k draws. *)
  let rng = Rng.create 42 in
  let buckets = Array.make 8 0 in
  let draws = 80_000 in
  for _ = 1 to draws do
    let v = Rng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i count ->
      let frac = float_of_int count /. float_of_int draws in
      if frac < 0.115 || frac > 0.135 then
        Alcotest.failf "bucket %d has fraction %.4f (expected ~0.125)" i frac)
    buckets

let test_int_in () =
  let rng = Rng.create 3 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-5) 5 in
    check "in inclusive range" true (v >= -5 && v <= 5)
  done

let test_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    check "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bernoulli_frequency () =
  let rng = Rng.create 5 in
  let hits = ref 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int draws in
  check "p=0.3 frequency" true (frac > 0.28 && frac < 0.32)

let test_geometric_mean () =
  (* E[geometric(p)] = 1/p. *)
  let rng = Rng.create 6 in
  let total = ref 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    total := !total + Rng.geometric rng 0.25
  done;
  let mean = float_of_int !total /. float_of_int draws in
  check "mean close to 4" true (mean > 3.8 && mean < 4.2)

let test_geometric_p1 () =
  let rng = Rng.create 6 in
  for _ = 1 to 100 do
    check_int "p=1 is always 1" 1 (Rng.geometric rng 1.0)
  done

let test_shuffle_is_permutation () =
  let rng = Rng.create 7 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle preserves multiset" (Array.init 100 (fun i -> i)) sorted

let test_permutation_valid () =
  let rng = Rng.create 8 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation of 0..49" (Array.init 50 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let rng = Rng.create 9 in
  for _ = 1 to 100 do
    let s = Rng.sample_without_replacement rng 20 1000 in
    check_int "20 samples" 20 (Array.length s);
    let tbl = Hashtbl.create 32 in
    Array.iter
      (fun v ->
        check "in range" true (v >= 0 && v < 1000);
        check "distinct" false (Hashtbl.mem tbl v);
        Hashtbl.replace tbl v ())
      s
  done

let test_sample_full () =
  let rng = Rng.create 10 in
  let s = Rng.sample_without_replacement rng 10 10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "m = n is a permutation" (Array.init 10 (fun i -> i)) sorted

let test_sample_uniform_marginal () =
  (* Each element of [0, 10) should appear in a 3-sample with probability
     3/10. *)
  let rng = Rng.create 11 in
  let counts = Array.make 10 0 in
  let trials = 30_000 in
  for _ = 1 to trials do
    Array.iter (fun v -> counts.(v) <- counts.(v) + 1)
      (Rng.sample_without_replacement rng 3 10)
  done;
  Array.iteri
    (fun i count ->
      let frac = float_of_int count /. float_of_int trials in
      if frac < 0.28 || frac > 0.32 then
        Alcotest.failf "element %d sampled with frequency %.4f (expected 0.30)" i frac)
    counts

let test_split_determinism () =
  let a = Rng.create 33 and b = Rng.create 33 in
  let a1 = Rng.split a and b1 = Rng.split b in
  for _ = 1 to 50 do
    Alcotest.(check int64) "split is deterministic" (Rng.bits64 a1) (Rng.bits64 b1)
  done

let test_split_n () =
  let rng = Rng.create 34 in
  let children = Rng.split_n rng 8 in
  check_int "8 children" 8 (Array.length children);
  (* Children streams should differ pairwise on their first output. *)
  let firsts = Array.map Rng.bits64 children in
  let tbl = Hashtbl.create 8 in
  Array.iter (fun v -> Hashtbl.replace tbl v ()) firsts;
  check_int "distinct first outputs" 8 (Hashtbl.length tbl)

let test_pick () =
  let rng = Rng.create 35 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng a in
    check "picked element" true (v = 10 || v = 20 || v = 30)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

(* --- known answers ------------------------------------------------------- *)

(* Pinned outputs of the whole stack. The Xoshiro256** words were checked
   against an independent model of the reference algorithm; the Rng rows pin
   the derived draws, so any change to the state layout or to a draw's
   rejection loop that alters a stream fails here. *)

let test_xoshiro_known_answers () =
  let x = Xoshiro.create 0L in
  List.iter
    (fun e -> Alcotest.(check int64) "xoshiro256**(create 0)" e (Xoshiro.next x))
    [ 0x99EC5F36CB75F2B4L; 0xBF6E1F784956452AL; 0x1A5F849D4933E6E0L;
      0x6AA594F1262D2D2CL ];
  let x = Xoshiro.create 0L in
  Xoshiro.jump x;
  List.iter
    (fun e -> Alcotest.(check int64) "create 0, then jump" e (Xoshiro.next x))
    [ 0x376215EDC846D62CL; 0x57C0611DE8350CA7L ]

let test_rng_known_answers () =
  let r = Rng.create 1 in
  Alcotest.(check (list int)) "int (create 1) 1000"
    [ 144; 323; 560; 162; 461; 501; 775; 492 ]
    (List.init 8 (fun _ -> Rng.int r 1000));
  let r = Rng.create 2 in
  Alcotest.(check (list (float 0.0))) "float (create 2) 1.0"
    [ 0x1.313bfc60476f1p-1; 0x1.9a1e9382f10f6p-2; 0x1.d4a041cc62016p-2 ]
    (List.init 3 (fun _ -> Rng.float r 1.0));
  let r = Rng.split (Rng.create 3) in
  Alcotest.(check (list int)) "split (create 3), int 1_000_000"
    [ 763483; 117985; 558572; 820538 ]
    (List.init 4 (fun _ -> Rng.int r 1_000_000));
  let r = Rng.create 7 in
  Alcotest.(check (list bool)) "bool (create 7)"
    [ false; true; false; true; false; true; false; true ]
    (List.init 8 (fun _ -> Rng.bool r));
  Alcotest.(check (list bool)) "then bernoulli 0.3"
    [ true; false; false; true; true; false; false; true ]
    (List.init 8 (fun _ -> Rng.bernoulli r 0.3))

let test_sample_known_answers () =
  let sample seed m n = Rng.sample_without_replacement (Rng.create seed) m n in
  Alcotest.(check (array int)) "6 of 20" [| 2; 15; 5; 18; 17; 13 |] (sample 4 6 20);
  Alcotest.(check (array int)) "6 of 10^6"
    [| 778525; 303368; 560665; 854350; 546556; 146243 |]
    (sample 5 6 1_000_000);
  Alcotest.(check (array int)) "12 of 60 (the shared+random topology shape)"
    [| 0; 42; 29; 51; 24; 52; 10; 50; 6; 9; 34; 49 |]
    (sample 6 12 60)

(* --- allocation ---------------------------------------------------------- *)

(* The per-node draws of the slot loops must not allocate: the generator
   state is unboxed, and the bounded draw is a plain loop. [Gc.minor_words]
   is an exact count, so the checks are exact. *)
let draws = 100_000

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_draws_allocate_nothing () =
  let r = Rng.create 12 in
  let hits = ref 0 in
  let count name f =
    let words = minor_words_of (fun () -> for _ = 1 to draws do if f () then incr hits done) in
    Alcotest.(check (float 0.0)) (name ^ ": minor words over 10^5 draws") 0.0 words
  in
  count "int" (fun () -> Rng.int r 1000 = 0);
  count "int_in" (fun () -> Rng.int_in r 5 9 = 5);
  count "bool" (fun () -> Rng.bool r);
  count "bernoulli" (fun () -> Rng.bernoulli r 0.3);
  (* A [float] returned across a module boundary is boxed by the caller's
     convention (2 words) unless the call is inlined; the draw itself
     allocates nothing. *)
  let words =
    minor_words_of (fun () ->
        for _ = 1 to draws do if Rng.float r 1.0 < 0.5 then incr hits done)
  in
  Alcotest.(check bool) "float: at most its boxed result per draw" true
    (words <= 2.0 *. float_of_int draws);
  ignore (Sys.opaque_identity !hits)

(* --- property tests --------------------------------------------------- *)

let prop_int_in_range =
  QCheck.Test.make ~name:"Rng.int always lands in [0, bound)" ~count:500
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_permutation_bijective =
  QCheck.Test.make ~name:"Rng.permutation is a bijection" ~count:200
    QCheck.(pair small_int (int_bound 200))
    (fun (seed, n) ->
      let p = Rng.permutation (Rng.create seed) n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_without_replacement yields distinct values" ~count:200
    QCheck.(triple small_int (int_bound 50) (int_bound 200))
    (fun (seed, m, extra) ->
      let n = m + extra in
      if n = 0 then true
      else begin
        let s = Rng.sample_without_replacement (Rng.create seed) m n in
        let tbl = Hashtbl.create 16 in
        Array.for_all
          (fun v ->
            let fresh = not (Hashtbl.mem tbl v) in
            Hashtbl.replace tbl v ();
            fresh && v >= 0 && v < n)
          s
      end)

let prop_sample_dense_equals_sparse =
  QCheck.Test.make ~name:"sample_without_replacement: dense path = sparse path" ~count:500
    QCheck.(triple small_int (int_bound 60) (int_bound 300))
    (fun (seed, n, m) ->
      (* m ranges over [0, n], with m = 0 and m = n both drawn often. *)
      let m = match m mod 4 with 0 -> 0 | 1 -> n | _ -> m mod (n + 1) in
      let a = Rng.create seed and b = Rng.create seed in
      Rng.sample_dense a m n = Rng.sample_sparse b m n
      && Rng.bits64 a = Rng.bits64 b)

let prop_same_seed_same_stream =
  QCheck.Test.make ~name:"equal seeds give equal streams" ~count:100 QCheck.small_int
    (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 20 do
        if Rng.bits64 a <> Rng.bits64 b then ok := false
      done;
      !ok)

let () =
  Alcotest.run "crn_prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "reference stream" `Quick test_splitmix_reference;
          Alcotest.test_case "determinism" `Quick test_splitmix_determinism;
          Alcotest.test_case "copy replays" `Quick test_splitmix_copy;
          Alcotest.test_case "split independence" `Quick test_splitmix_split_independent;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "determinism" `Quick test_xoshiro_determinism;
          Alcotest.test_case "copy replays" `Quick test_xoshiro_copy;
          Alcotest.test_case "jump gives disjoint stream" `Quick test_xoshiro_jump_disjoint;
        ] );
      ( "rng",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "int_in range" `Quick test_int_in;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "bernoulli frequency" `Quick test_bernoulli_frequency;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
          Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "permutation valid" `Quick test_permutation_valid;
          Alcotest.test_case "sampling distinct" `Quick test_sample_without_replacement;
          Alcotest.test_case "sampling m=n" `Quick test_sample_full;
          Alcotest.test_case "sampling marginal uniform" `Quick test_sample_uniform_marginal;
          Alcotest.test_case "split determinism" `Quick test_split_determinism;
          Alcotest.test_case "split_n distinct" `Quick test_split_n;
          Alcotest.test_case "pick" `Quick test_pick;
        ] );
      ( "vectors",
        [
          Alcotest.test_case "xoshiro create 0 and jump" `Quick test_xoshiro_known_answers;
          Alcotest.test_case "rng int, float, split" `Quick test_rng_known_answers;
          Alcotest.test_case "sample_without_replacement" `Quick test_sample_known_answers;
        ] );
      ( "allocation",
        [ Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_int_in_range;
            prop_permutation_bijective;
            prop_sample_distinct;
            prop_sample_dense_equals_sparse;
            prop_same_seed_same_stream;
          ] );
    ]
