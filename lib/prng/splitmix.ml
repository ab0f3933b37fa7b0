(* The 64-bit state lives in an 8-byte [Bytes.t], read and written with the
   unboxed [get_int64_ne]/[set_int64_ne] primitives: a [mutable int64]
   record field would box a fresh int64 on every store. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* Stafford's Mix13 variant of the MurmurHash3 finalizer. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

let[@inline] step t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let next t = step t

let next_int64 = next

let next_into t buf off = Bytes.set_int64_ne buf off (step t)

let split t = create (mix64 (step t))
