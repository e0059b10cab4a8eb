type fn_stat = {
  mutable calls : int;
  mutable total_ns : float;
  mutable runtime_ns : float;
}

type site_stat = {
  mutable alloc_bytes : int;
  mutable allocs : int;
  mutable overhead_ns : float;
  mutable misses : int;
}

module Site_set = Mira_util.Misc.Int_tbl  (* the sites a function accessed *)

(* A frame carries what the access path updates, resolved once at
   [enter]: the function's stats and its touched-site set. *)
type frame = {
  fr_name : string;
  fr_enter : float;
  fr_stat : fn_stat;
  fr_sites : unit Site_set.t;
  mutable fr_last_site : int;  (* the site this frame touched last *)
}

(* A thread's open frames, innermost first.  The ref is the thread's
   for the profile's lifetime ([reset] empties it in place), so the
   runtime resolves it once per thread. *)
type stack = frame list ref

let site_cache_size = 64

type t = {
  funcs : (string, fn_stat) Hashtbl.t;
  sites : (int, site_stat) Hashtbl.t;
  site_cache : (int * site_stat) option array;
      (* direct-mapped by site id over [sites], for the access path *)
  touched : (string, unit Site_set.t) Hashtbl.t;  (* function -> sites *)
  stacks : stack Mira_util.Tid_map.t;  (* per-thread call stacks *)
  mutable strict : bool;  (* raise on mismatched enter/exit *)
}

let create () =
  {
    funcs = Hashtbl.create 32;
    sites = Hashtbl.create 32;
    site_cache = Array.make site_cache_size None;
    touched = Hashtbl.create 64;
    stacks = Mira_util.Tid_map.create 8;
    strict = false;
  }

let set_strict t on = t.strict <- on

let fn_stat t name =
  match Hashtbl.find_opt t.funcs name with
  | Some s -> s
  | None ->
    let s = { calls = 0; total_ns = 0.0; runtime_ns = 0.0 } in
    Hashtbl.replace t.funcs name s;
    s

let site_stat t site =
  match Hashtbl.find_opt t.sites site with
  | Some s -> s
  | None ->
    let s = { alloc_bytes = 0; allocs = 0; overhead_ns = 0.0; misses = 0 } in
    Hashtbl.replace t.sites site s;
    s

let touched_sites t name =
  match Hashtbl.find_opt t.touched name with
  | Some s -> s
  | None ->
    let s = Site_set.create 8 in
    Hashtbl.replace t.touched name s;
    s

let stack t ~tid =
  match Mira_util.Tid_map.find_opt t.stacks tid with
  | Some s -> s
  | None ->
    let s = ref [] in
    Mira_util.Tid_map.replace t.stacks tid s;
    s

let enter t ~tid ~now name =
  let st = stack t ~tid in
  let stat = fn_stat t name in
  st :=
    {
      fr_name = name;
      fr_enter = now;
      fr_stat = stat;
      fr_sites = touched_sites t name;
      fr_last_site = min_int;
    }
    :: !st;
  stat.calls <- stat.calls + 1

exception Mismatched_exit of { name : string; tid : int; stack : string list }

let exit_ t ~tid ~now name =
  let st = stack t ~tid in
  let on_stack = List.exists (fun fr -> String.equal fr.fr_name name) !st in
  let mismatched =
    match !st with
    | top :: _ when String.equal top.fr_name name -> false
    | _ -> true
  in
  if t.strict && mismatched then
    raise
      (Mismatched_exit
         { name; tid; stack = List.map (fun fr -> fr.fr_name) !st });
  if not on_stack then
    (* An exit with no matching enter: drop it rather than unwinding
       unrelated frames. *)
    ()
  else begin
    (* Pop to the matching frame, closing (and charging) every skipped
       frame as if it exited now — an unmatched inner enter must not
       leak open frames that would misattribute all later time. *)
    let rec pop = function
      | [] -> []
      | frame :: rest ->
        let s = frame.fr_stat in
        s.total_ns <- s.total_ns +. (now -. frame.fr_enter);
        if String.equal frame.fr_name name then rest else pop rest
    in
    st := pop !st
  end

let current t ~tid =
  match !(stack t ~tid) with [] -> None | fr :: _ -> Some fr.fr_name

let innermost (st : stack) ~default =
  match !st with [] -> default | fr :: _ -> fr.fr_name

(* The per-access walks below are top-level recursions rather than
   closures, so they allocate nothing. *)
let rec charge_frames ns = function
  | [] -> ()
  | fr :: rest ->
    let s = fr.fr_stat in
    s.runtime_ns <- s.runtime_ns +. ns;
    charge_frames ns rest

let charge (st : stack) ~ns = if ns > 0.0 then charge_frames ns !st

let cached_site_stat t site =
  let i = site land (site_cache_size - 1) in
  match t.site_cache.(i) with
  | Some (k, s) when k = site -> s
  | _ ->
    let s = site_stat t site in
    t.site_cache.(i) <- Some (site, s);
    s

let add_site_overhead t ~site ~ns =
  let s = cached_site_stat t site in
  s.overhead_ns <- s.overhead_ns +. ns

let add_site_misses t ~site ~n =
  let s = cached_site_stat t site in
  s.misses <- s.misses + n

let add_alloc t ~site ~bytes =
  let s = site_stat t site in
  s.alloc_bytes <- s.alloc_bytes + bytes;
  s.allocs <- s.allocs + 1

(* Accesses repeat a site far more often than they change it, and a
   touched set only grows until [reset] drops it with the frames, so a
   frame skips the set lookup for the site it touched last. *)
let rec touch_frames site = function
  | [] -> ()
  | fr :: rest ->
    if fr.fr_last_site <> site then begin
      fr.fr_last_site <- site;
      if not (Site_set.mem fr.fr_sites site) then Site_set.replace fr.fr_sites site ()
    end;
    touch_frames site rest

let touch (st : stack) ~site = touch_frames site !st

let fn_stats t = Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.funcs []
let site_stats t = Hashtbl.fold (fun site s acc -> (site, s) :: acc) t.sites []

let overhead_ratio s =
  let rest = s.total_ns -. s.runtime_ns in
  if rest <= 0.0 then infinity else s.runtime_ns /. rest

(* How many of [n] candidates a fraction keeps (at least one). *)
let frac_count ~frac n =
  Mira_util.Misc.clamp ~lo:1 ~hi:n (int_of_float (ceil (frac *. float_of_int n)))

(* The first [k] elements of a stable sort by [cmp], without sorting
   all n: a bounded heap of the best k seen so far, ordered worst-first
   over (element, input index) so ties resolve exactly like the stable
   sort did — O(n log k) instead of O(n log n) + a filteri walk. *)
let stable_top_k ~cmp k items =
  if k <= 0 then []
  else begin
    let worse (a, ia) (b, ib) =
      let c = cmp a b in
      c > 0 || (c = 0 && ia >= ib)
    in
    let heap = Mira_util.Min_heap.create ~le:worse in
    List.iteri
      (fun i x ->
        Mira_util.Min_heap.push heap (x, i);
        if Mira_util.Min_heap.length heap > k then
          ignore (Mira_util.Min_heap.pop heap))
      items;
    let rec drain acc =
      match Mira_util.Min_heap.pop heap with
      | None -> acc
      | Some (x, _) -> drain (x :: acc)
    in
    drain []
  end

(* Rank by absolute time lost to the runtime, tie-broken by the
   overhead ratio: with handfuls of functions the absolute measure is
   more robust than the paper's pure ratio (a tiny all-miss helper can
   out-rank the function that actually dominates execution). *)
let top_functions t ~frac =
  let items =
    fn_stats t |> List.filter (fun (_, s) -> s.runtime_ns > 0.0)
  in
  match items with
  | [] -> []
  | _ ->
    stable_top_k
      ~cmp:(fun (_, a) (_, b) ->
        match compare b.runtime_ns a.runtime_ns with
        | 0 -> compare (overhead_ratio b) (overhead_ratio a)
        | c -> c)
      (frac_count ~frac (List.length items))
      items
    |> List.map fst

let sites_of_function t name =
  match Hashtbl.find_opt t.touched name with
  | None -> []
  | Some sites -> Site_set.fold (fun site () acc -> site :: acc) sites [] |> List.sort compare

(* The paper picks the largest objects; we rank by the profiled
   runtime overhead each site actually caused (size as a tie-break) —
   the same profiling-guided spirit, robust to small-but-hot objects. *)
let largest_sites t ~frac ~among =
  let candidates =
    List.concat_map (sites_of_function t) among
    |> List.sort_uniq compare
    |> List.map (fun site ->
           let st = site_stat t site in
           (site, (st.overhead_ns, st.alloc_bytes)))
  in
  match candidates with
  | [] -> []
  | _ ->
    stable_top_k
      ~cmp:(fun (_, a) (_, b) -> compare b a)
      (frac_count ~frac (List.length candidates))
      candidates
    |> List.map fst

let reset t =
  Hashtbl.reset t.funcs;
  Hashtbl.reset t.sites;
  Array.fill t.site_cache 0 site_cache_size None;
  Hashtbl.reset t.touched;
  Mira_util.Tid_map.iter (fun _ st -> st := []) t.stacks
