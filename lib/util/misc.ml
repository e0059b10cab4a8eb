let round_up x align =
  assert (align > 0);
  (x + align - 1) / align * align

let round_down x align =
  assert (align > 0);
  x / align * align

let is_pow2 x = x > 0 && x land (x - 1) = 0

let next_pow2 x =
  assert (x >= 1);
  let rec go p = if p >= x then p else go (p * 2) in
  go 1

let log2 x =
  assert (x >= 1);
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 x

(* A multiply with its high bits folded down: a table indexes by the
   low bits, where a bare multiply (or the identity) puts power-of-two
   strides of keys in one bucket. *)
let hash_int x =
  let h = x * 0x1E3779B97F4A7C15 in
  h lxor (h lsr 29)

module Int_tbl = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash = hash_int
end)

(* Typed: machine comparisons, not a C call to the polymorphic compare. *)
let clamp ~lo ~hi (x : int) = if x < lo then lo else if x > hi then hi else x
let clamp_f ~lo ~hi (x : float) = if x < lo then lo else if x > hi then hi else x

let divide_ceil a b =
  assert (a >= 0 && b > 0);
  (a + b - 1) / b

let merge_extents extents =
  let rec go = function
    | (o1, l1) :: (o2, l2) :: rest when o2 <= o1 + l1 ->
      go ((o1, max (o1 + l1) (o2 + l2) - o1) :: rest)
    | e :: rest -> e :: go rest
    | [] -> []
  in
  go (List.sort compare extents)
