type t = { gen : Xoshiro.t; sm : Splitmix.t }

let of_int64 seed =
  let sm = Splitmix.create seed in
  { gen = Xoshiro.of_splitmix sm; sm = Splitmix.split sm }

let create seed = of_int64 (Splitmix.mix64 (Int64.of_int seed))

let split t =
  let sm = Splitmix.split t.sm in
  { gen = Xoshiro.of_splitmix sm; sm = Splitmix.split sm }

let split_n t n = Array.init n (fun _ -> split t)

let copy t = { gen = Xoshiro.copy t.gen; sm = Splitmix.copy t.sm }

let bits64 t = Xoshiro.next t.gen

let max_bits62 = 0x3FFF_FFFF_FFFF_FFFF

(* Uniform int on [0, bound) by rejection on the low 62 bits of a draw,
   which keep the value in OCaml's positive int range. A plain loop, not a
   local recursive closure, so a draw allocates nothing. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let limit = max_bits62 - bound + 1 in
  let r = ref (Xoshiro.next_bits62 t.gen) in
  let v = ref (!r mod bound) in
  (* Avoid modulo bias: reject the tail of the range. *)
  while !r - !v > limit do
    r := Xoshiro.next_bits62 t.gen;
    v := !r mod bound
  done;
  !v

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* The high 53 bits of a draw, scaled to [0, 1). *)
let[@inline] unit_float t = float_of_int (Xoshiro.next_bits53 t.gen) *. 0x1.0p-53

let float t bound = bound *. unit_float t

let bool t = Xoshiro.next_bits62 t.gen land 1 = 1

let bernoulli t p = unit_float t < p

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p = 1.0 then 1
  else
    (* Inverse-CDF sampling: ceil(ln U / ln (1-p)). *)
    let u = 1.0 -. float t 1.0 in
    let v = ceil (log u /. log (1.0 -. p)) in
    max 1 (int_of_float v)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffled_init t n f =
  let a = Array.init n f in
  shuffle t a;
  a

let permutation t n = shuffled_init t n (fun i -> i)

(* Both paths below are the same partial Fisher–Yates over the virtual array
   [0..n-1] with the same draws: step i swaps entries i and j, j uniform on
   [i, n-1], and outputs the new entry i. The dense path stores the array;
   the sparse path stores only displaced entries, so it costs O(m) however
   large [n] is. *)
let sample_dense t m n =
  let a = Array.init n (fun i -> i) in
  for i = 0 to m - 1 do
    let j = int_in t i (n - 1) in
    let vi = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- vi
  done;
  Array.sub a 0 m

let sample_sparse t m n =
  let displaced = Hashtbl.create (2 * m) in
  let value_at i = match Hashtbl.find_opt displaced i with Some v -> v | None -> i in
  Array.init m (fun i ->
      let j = int_in t i (n - 1) in
      let vi = value_at i and vj = value_at j in
      Hashtbl.replace displaced j vi;
      Hashtbl.replace displaced i vj;
      vj)

let sample_without_replacement t m n =
  if m > n then invalid_arg "Rng.sample_without_replacement: m > n";
  if m < 0 then invalid_arg "Rng.sample_without_replacement: m < 0";
  (* The table holds up to 2m displaced entries at several words each, so
     below 8m the whole array is the cheaper store. *)
  if n <= 8 * m then sample_dense t m n else sample_sparse t m n

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))
