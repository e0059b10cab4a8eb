let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else sum xs /. float_of_int n

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

type online = { mutable count : int; mutable m : float; mutable s : float }

let online_create () = { count = 0; m = 0.0; s = 0.0 }

let online_add o x =
  o.count <- o.count + 1;
  let delta = x -. o.m in
  o.m <- o.m +. (delta /. float_of_int o.count);
  o.s <- o.s +. (delta *. (x -. o.m))

let online_count o = o.count
let online_mean o = o.m

let online_reset o =
  o.count <- 0;
  o.m <- 0.0;
  o.s <- 0.0

let online_stddev o =
  if o.count < 2 then 0.0 else sqrt (o.s /. float_of_int o.count)
