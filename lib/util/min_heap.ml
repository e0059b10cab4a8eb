(* Array-backed binary min-heap.  The classic sift-up/sift-down pair
   over a growable array: parent of [i] is [(i-1)/2], children are
   [2i+1] and [2i+2], and the invariant is [le parent child] along
   every edge.  As [le] is total, [not (le a b)] means [b] strictly
   precedes [a]: one call of [le] per step.  No per-operation
   allocation once the array has grown to the working-set size. *)

type 'a t = {
  le : 'a -> 'a -> bool;
  mutable data : 'a array;  (* elements live in [0, size) *)
  mutable size : int;
}

let create ~le = { le; data = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let data = Array.make (max 8 (2 * cap)) x in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let sift_up t i0 =
  let d = t.data in
  let x = d.(i0) and i = ref i0 in
  while !i > 0 && not (t.le d.((!i - 1) / 2) x) do
    d.(!i) <- d.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  d.(!i) <- x

(* [!c] is the earlier child of [!i]. *)
let sift_down t i0 =
  let d = t.data and n = t.size in
  let x = d.(i0) and i = ref i0 and c = ref ((2 * i0) + 1) in
  if !c + 1 < n && not (t.le d.(!c) d.(!c + 1)) then incr c;
  while !c < n && not (t.le x d.(!c)) do
    d.(!i) <- d.(!c);
    i := !c;
    c := (2 * !i) + 1;
    if !c + 1 < n && not (t.le d.(!c) d.(!c + 1)) then incr c
  done;
  d.(!i) <- x

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let top t =
  if t.size = 0 then invalid_arg "Min_heap.top: empty heap";
  t.data.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      (* Drop the stale duplicate so popped elements don't outlive the
         heap (the slot is overwritten again on the next push). *)
      t.data.(t.size) <- t.data.(0);
      sift_down t 0
    end
    else t.data <- [||];
    Some top
  end

let clear t =
  t.data <- [||];
  t.size <- 0

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let map_monotone f t =
  for i = 0 to t.size - 1 do
    t.data.(i) <- f t.data.(i)
  done
