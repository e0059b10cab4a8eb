module Sim = Mira_sim
module Rt = Mira_runtime
module Cache = Mira_cache

let window_size = 32
let max_prefetch = 8
let extra_fault_cost_ns = 800.0

type trend_state = {
  mutable history : int list;  (* recent fault pages, newest first *)
  mutable depth : int;  (* current adaptive prefetch depth *)
}

(* Boyer-Moore majority vote over successive deltas of the window. *)
let majority_delta history =
  let rec deltas acc = function
    | a :: (b :: _ as rest) -> deltas ((a - b) :: acc) rest
    | _ -> acc
  in
  let ds = deltas [] history in
  match ds with
  | [] -> None
  | _ ->
    let candidate, _ =
      List.fold_left
        (fun (cand, count) d ->
          if count = 0 then (d, 1)
          else if d = cand then (cand, count + 1)
          else (cand, count - 1))
        (0, 0) ds
    in
    let votes = List.length (List.filter (fun d -> d = candidate) ds) in
    if candidate <> 0 && 2 * votes > List.length ds then Some candidate else None

let create ?(params = Sim.Params.default) ~local_budget ~far_capacity () =
  let cfg =
    { (Rt.Runtime.config_default ~local_budget ~far_capacity) with
      Rt.Runtime.params }
  in
  let rt = Rt.Runtime.create cfg in
  let swap = Cache.Manager.swap (Rt.Runtime.manager rt) in
  Cache.Swap_section.set_extra_fault_ns swap extra_fault_cost_ns;
  let state = { history = []; depth = 1 } in
  Cache.Swap_section.set_readahead swap (fun pno ->
      state.history <- pno :: state.history;
      (match List.filteri (fun i _ -> i < window_size) state.history with
      | trimmed -> state.history <- trimmed);
      match majority_delta state.history with
      | None ->
        (* No trend: shrink the window like Leap's controller. *)
        state.depth <- max 1 (state.depth / 2);
        (1, 0)
      | Some delta ->
        (* A fault despite an active trend means the previous prefetch
           was insufficient or wrong; grow cautiously. *)
        state.depth <- min max_prefetch (state.depth * 2);
        (delta, state.depth));
  let ms = Rt.Runtime.memsys rt in
  {
    ms with
    Rt.Memsys.name = "leap";
    set_nthreads =
      (fun n ->
        ms.Rt.Memsys.set_nthreads n;
        let extra =
          extra_fault_cost_ns
          +. (params.Sim.Params.swap_lock_ns *. float_of_int (max 0 (n - 1)))
        in
        Cache.Swap_section.set_extra_fault_ns swap extra);
  }
