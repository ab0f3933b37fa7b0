(* The 256-bit state s0..s3 lives in a 32-byte [Bytes.t] at offsets 0, 8,
   16 and 24, read and written with the unboxed [get_int64_ne]/
   [set_int64_ne] primitives. Four [mutable int64] record fields would box
   a fresh int64 on every store, and the per-node states of a large run sit
   in the major heap, so each store would also go through the write
   barrier. [step] is inlined into every draw, so the [int]-returning draws
   below allocate nothing. *)
type t = Bytes.t

let[@inline] rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let of_splitmix sm =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Splitmix.next_into sm t (8 * i)
  done;
  (* SplitMix64 output is never all-zero across four draws in practice; guard
     anyway because xoshiro's zero state is absorbing. *)
  let s01 = Int64.logor (Bytes.get_int64_ne t 0) (Bytes.get_int64_ne t 8) in
  let s23 = Int64.logor (Bytes.get_int64_ne t 16) (Bytes.get_int64_ne t 24) in
  if Int64.logor s01 s23 = 0L then Bytes.set_int64_ne t 0 1L;
  t

let create seed = of_splitmix (Splitmix.create seed)

let copy = Bytes.copy

let[@inline] step t =
  let s0 = Bytes.get_int64_ne t 0 in
  let s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 in
  let s3 = Bytes.get_int64_ne t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 (Int64.logxor s2 tmp);
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let next t = step t

let next_bits62 t = Int64.to_int (step t) land 0x3FFF_FFFF_FFFF_FFFF

let next_bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

let jump_table =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL;
     0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun jump_word ->
      for b = 0 to 63 do
        if Int64.(logand jump_word (shift_left 1L b)) <> 0L then
          for i = 0 to 3 do
            Bytes.set_int64_ne acc (8 * i)
              (Int64.logxor (Bytes.get_int64_ne acc (8 * i))
                 (Bytes.get_int64_ne t (8 * i)))
          done;
        ignore (next t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32
