(* Summation is a plain loop: [Array.fold_left ( +. )] boxes every
   element and every partial sum.  The order is left to right, as the
   fold's was, so means are unchanged to the bit. *)
let sum (xs : float array) =
  let s = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    s := !s +. xs.(i)
  done;
  !s

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else sum xs /. float_of_int n

(* [compare]'s order on floats: NaN first, then ascending. *)
let before (x : float) y = x < y || (x <> x && y = y)

(* Sorts a flat float array in place: insertion sort over runs of
   [run_length] elements, then bottom-up merges through one scratch
   array.  The generic [Array.sort] boxes both operands of every
   comparison; this allocates nothing per element. *)
let run_length = 16

let merge src dst lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !i < mid && (!j >= hi || not (before src.(!j) src.(!i))) then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

let sort (a : float array) =
  let n = Array.length a in
  for r = 0 to (n - 1) / run_length do
    let lo = r * run_length in
    for i = lo + 1 to min n (lo + run_length) - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && before x a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  done;
  let src = ref a and dst = ref (Array.create_float n) in
  let width = ref run_length in
  while !width < n do
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) and hi = min n (!lo + (2 * !width)) in
      merge !src !dst !lo mid hi;
      lo := hi
    done;
    let s = !src in
    src := !dst;
    dst := s;
    width := 2 * !width
  done;
  if !src != a then Array.blit !src 0 a 0 n

(* Linear interpolation between the two ranks around [p]. *)
let ranked sorted p =
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let percentiles xs ps =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty array";
  Array.iter
    (fun p ->
      if not (p >= 0.0 && p <= 100.0) then
        invalid_arg (Printf.sprintf "Stats.percentile: p must be in [0,100] (got %g)" p))
    ps;
  let sorted = Array.copy xs in
  sort sorted;
  Array.map (ranked sorted) ps

let percentile xs p = (percentiles xs [| p |]).(0)

(* All floats, so the record is stored flat and an update boxes
   nothing; the count stays exact up to 2^53 samples. *)
type online = { mutable count : float; mutable m : float; mutable s : float }

let online_create () = { count = 0.0; m = 0.0; s = 0.0 }

let online_add o x =
  o.count <- o.count +. 1.0;
  let delta = x -. o.m in
  o.m <- o.m +. (delta /. o.count);
  o.s <- o.s +. (delta *. (x -. o.m))

let online_count o = int_of_float o.count
let online_mean o = o.m

let online_reset o =
  o.count <- 0.0;
  o.m <- 0.0;
  o.s <- 0.0

let online_stddev o = if o.count < 2.0 then 0.0 else sqrt (o.s /. o.count)
