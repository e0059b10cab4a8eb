let word_bits = 32

(* levels.(0) holds one bit per index; the last level is one word. *)
type t = { levels : int array array }

let create n =
  let rec build len acc =
    let words = max 1 ((len + word_bits - 1) / word_bits) in
    let acc = Array.make words 0 :: acc in
    if words = 1 then Array.of_list (List.rev acc) else build words acc
  in
  { levels = build n [] }

(* Set bit [i] at level [l] and, when its word was empty, the
   word's summary bit one level up.  Top-level recursions, not local
   closures: [add] and [remove] run on every swap access. *)
let rec add_at levels l i =
  if l < Array.length levels then begin
    let w = levels.(l) and j = i / word_bits in
    let was = w.(j) in
    w.(j) <- was lor (1 lsl (i mod word_bits));
    if was = 0 then add_at levels (l + 1) j
  end

let add t i = add_at t.levels 0 i
let mem t i = t.levels.(0).(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let rec remove_at levels l i =
  if l < Array.length levels then begin
    let w = levels.(l) and j = i / word_bits in
    w.(j) <- w.(j) land lnot (1 lsl (i mod word_bits));
    if w.(j) = 0 then remove_at levels (l + 1) j
  end

let remove t i = if mem t i then remove_at t.levels 0 i

let is_empty t = t.levels.(Array.length t.levels - 1).(0) = 0

(* Index of the lowest set bit of a non-zero word. *)
let lowest_bit x =
  let rec go x n step =
    if step = 0 then n
    else if x land ((1 lsl step) - 1) = 0 then go (x lsr step) (n + step) (step / 2)
    else go x n (step / 2)
  in
  go x 0 (word_bits / 2)

let min_elt t =
  if is_empty t then None
  else begin
    let rec descend l j =
      if l < 0 then j
      else descend (l - 1) ((j * word_bits) + lowest_bit t.levels.(l).(j))
    in
    Some (descend (Array.length t.levels - 1) 0)
  end
