(* Deterministic Space-Saving top-K sketch (Metwally, Agrawal, El
   Abbadi 2005): at most [k] monitored entries; an unmonitored key
   evicts the current minimum and inherits its count as overestimation
   error.  The classic guarantees hold: every key whose true frequency
   exceeds [total/k] is present, and each reported count overestimates
   the true count by at most its recorded [err] (itself <= total/k).

   Host-side only — touching the sketch never advances a simulated
   clock — and deterministic: eviction picks the minimum count with
   ties broken by the lexicographically greatest key, so identical
   update streams produce identical sketches. *)

type entry = { e_key : string; mutable count : int64; mutable err : int64 }

type t = {
  k : int;
  tbl : (string, entry) Hashtbl.t;
  mutable total : int64;  (* total weight ever touched *)
}

let create ~k =
  if k < 1 then invalid_arg (Printf.sprintf "Sketch.create: k = %d (need >= 1)" k);
  { k; tbl = Hashtbl.create (2 * k); total = 0L }

let total t = t.total

(* Monitored-set minimum under the deterministic order: smallest count,
   ties to the greatest key (so the smallest key among equals survives
   longest — a stable, explainable rule). *)
let victim t =
  Hashtbl.fold
    (fun _ e acc ->
      match acc with
      | None -> Some e
      | Some m ->
        if e.count < m.count || (e.count = m.count && e.e_key > m.e_key) then
          Some e
        else acc)
    t.tbl None

let touch ?(weight = 1L) t key =
  if weight > 0L then begin
    t.total <- Int64.add t.total weight;
    match Hashtbl.find_opt t.tbl key with
    | Some e -> e.count <- Int64.add e.count weight
    | None ->
      if Hashtbl.length t.tbl < t.k then
        Hashtbl.replace t.tbl key { e_key = key; count = weight; err = 0L }
      else begin
        match victim t with
        | None -> ()
        | Some v ->
          Hashtbl.remove t.tbl v.e_key;
          Hashtbl.replace t.tbl key
            { e_key = key; count = Int64.add v.count weight; err = v.count }
      end
  end

let error_bound t =
  if Hashtbl.length t.tbl < t.k then 0L
  else Int64.div t.total (Int64.of_int t.k)

(* Count-descending, key-ascending — a deterministic total order. *)
let entry_order (ka, ca) (kb, cb) =
  match Int64.compare cb ca with 0 -> String.compare ka kb | c -> c

let snapshot t =
  Hashtbl.fold (fun key e acc -> (key, e.count) :: acc) t.tbl []
  |> List.sort entry_order

let top t =
  Hashtbl.fold (fun key e acc -> (key, e.count, e.err) :: acc) t.tbl []
  |> List.sort (fun (ka, ca, _) (kb, cb, _) -> entry_order (ka, ca) (kb, cb))

(* Merging two snapshots (e.g. adjacent time windows downsampling)
   sums counts per key and re-truncates; the result overestimates by
   at most the sum of the inputs' bounds, which the windowed exporter
   documents rather than tracks per key. *)
let merge_snapshots ~k a b =
  let sums = Hashtbl.create (2 * k) in
  List.iter
    (fun (key, n) ->
      let cur = Option.value ~default:0L (Hashtbl.find_opt sums key) in
      Hashtbl.replace sums key (Int64.add cur n))
    (a @ b);
  let merged =
    Hashtbl.fold (fun key n acc -> (key, n) :: acc) sums []
    |> List.sort entry_order
  in
  List.filteri (fun i _ -> i < k) merged

let reset t =
  Hashtbl.reset t.tbl;
  t.total <- 0L
