type t = {
  num_channels : int;
  local_to_global : int array array;
  sets : Bitset.t array; (* cached channel set per node *)
}

let create ~num_channels ~local_to_global =
  let n = Array.length local_to_global in
  if n = 0 then invalid_arg "Assignment.create: no nodes";
  let c = Array.length local_to_global.(0) in
  if c = 0 then invalid_arg "Assignment.create: empty channel sets";
  let sets =
    Array.map
      (fun row ->
        if Array.length row <> c then
          invalid_arg "Assignment.create: ragged rows (nodes must have equal c)";
        let set = Bitset.create num_channels in
        Array.iter
          (fun ch ->
            if ch < 0 || ch >= num_channels then
              invalid_arg "Assignment.create: channel id out of range";
            if Bitset.mem set ch then
              invalid_arg "Assignment.create: duplicate channel in a node's set";
            Bitset.set set ch)
          row;
        set)
      local_to_global
  in
  { num_channels; local_to_global; sets }

let num_nodes t = Array.length t.local_to_global
let num_channels t = t.num_channels
let channels_per_node t = Array.length t.local_to_global.(0)

let global_of_local t ~node ~label = t.local_to_global.(node).(label)

(* Top level rather than a local closure, so a lookup allocates nothing. *)
let rec find_label row channel i =
  if i >= Array.length row then -1
  else if row.(i) = channel then i
  else find_label row channel (i + 1)

let label_of_global t ~node ~channel = find_label t.local_to_global.(node) channel 0

let local_of_global t ~node ~channel =
  let label = label_of_global t ~node ~channel in
  if label < 0 then None else Some label

let mem t ~node ~channel =
  channel >= 0 && channel < t.num_channels && Bitset.mem t.sets.(node) channel

let channel_set t ~node = Bitset.copy t.sets.(node)

let overlap t u v = Bitset.inter_cardinal t.sets.(u) t.sets.(v)

let min_pairwise_overlap t =
  let n = num_nodes t in
  if n < 2 then channels_per_node t
  else begin
    let best = ref max_int in
    for u = 0 to n - 2 do
      for v = u + 1 to n - 1 do
        best := min !best (overlap t u v)
      done
    done;
    !best
  end

let relabel rng t =
  let local_to_global =
    Array.map
      (fun row ->
        let row = Array.copy row in
        Crn_prng.Rng.shuffle rng row;
        row)
      t.local_to_global
  in
  create ~num_channels:t.num_channels ~local_to_global

let pp fmt t =
  Format.fprintf fmt "@[<v>assignment: n=%d C=%d c=%d@," (num_nodes t)
    t.num_channels (channels_per_node t);
  Array.iteri
    (fun node row ->
      Format.fprintf fmt "  node %d: [%s]@," node
        (String.concat ";" (Array.to_list (Array.map string_of_int row))))
    t.local_to_global;
  Format.fprintf fmt "@]"

let permute_channels rng t =
  let perm = Crn_prng.Rng.permutation rng t.num_channels in
  let local_to_global =
    Array.map (fun row -> Array.map (fun ch -> perm.(ch)) row) t.local_to_global
  in
  create ~num_channels:t.num_channels ~local_to_global
