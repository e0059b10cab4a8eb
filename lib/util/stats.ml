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
let before (x : float) y = x < y || (x <> x && y = y) [@@inline]

(* The [j]th element of [xs], in input order, that [before] ties with
   [p]: where a stable sort puts rank [j] of [p]'s ties. *)
let rec nth_tie xs p j i =
  let x = xs.(i) in
  if before x p || before p x then nth_tie xs p j (i + 1)
  else if j = 0 then x
  else nth_tie xs p (j - 1) (i + 1)

(* Writes rank [k] of [xs]'s stable sort by [before] into [out.(i)].
   [a], a copy of [xs], holds the ranks from [!lo] on from slot [!lo]
   on.  Three-way partitions around a middle pivot narrow the range to
   the ties holding rank [k], from [lt] on, which becomes [!lo]: ranks
   asked in ascending order reuse the work.  Ties whose bits differ
   (zeros of both signs, NaNs) are told apart by input order. *)
let select xs a lo k out i =
  let l = ref (if k < !lo then 0 else !lo) and h = ref (Array.length a) in
  while !l < !h do
    let p = a.(!l + ((!h - !l) / 2)) in
    let lt = ref !l and j = ref !l and gt = ref !h in
    while !j < !gt do
      let x = a.(!j) in
      if before x p then begin
        a.(!j) <- a.(!lt);
        a.(!lt) <- x;
        incr lt;
        incr j
      end
      else if before p x then begin
        decr gt;
        a.(!j) <- a.(!gt);
        a.(!gt) <- x
      end
      else incr j
    done;
    if k < !lt then h := !lt
    else if k >= !gt then l := !gt
    else begin
      if p = 0.0 || p <> p then out.(i) <- nth_tie xs p (k - !lt) 0 else out.(i) <- p;
      lo := !lt;
      h := !l
    end
  done

(* Each figure interpolates linearly between the two ranks around [p].
   Only those ranks are selected, in one copy of [xs]: no sort, and
   nothing allocated per element. *)
let percentiles xs ps =
  let n = Array.length xs and m = Array.length ps in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  Array.iter
    (fun p ->
      if not (p >= 0.0 && p <= 100.0) then
        invalid_arg (Printf.sprintf "Stats.percentile: p must be in [0,100] (got %g)" p))
    ps;
  let a = Array.copy xs and lo = ref 0 and v = Array.create_float 2 in
  let out = Array.create_float m in
  for i = 0 to m - 1 do
    let rank = ps.(i) /. 100.0 *. float_of_int (n - 1) in
    let klo = int_of_float (floor rank) and khi = int_of_float (ceil rank) in
    select xs a lo klo v 0;
    select xs a lo khi v 1;
    if klo = khi then out.(i) <- v.(0)
    else begin
      let frac = rank -. float_of_int klo in
      out.(i) <- (v.(0) *. (1.0 -. frac)) +. (v.(1) *. frac)
    end
  done;
  out

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
