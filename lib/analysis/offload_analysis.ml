module Ir = Mira_mir.Ir

type score = {
  o_name : string;
  o_compute_weight : float;
  o_far_accesses : float;
  o_sites : int list;
  o_benefit_ns : float;
}

(* Guesses the analysis cannot measure: the trip count of a loop whose
   bounds are not constant, and the fraction of far accesses that miss
   the local cache when the function is not offloaded. *)
let default_trip = 64
let miss_rate = 0.5

(* Dynamic estimates: ops inside a loop are weighted by its constant trip
   count, or [default_trip] when unknown. *)
let rec weigh_block block =
  List.fold_left
    (fun (ops, accesses) op ->
      let o, a = weigh_op op in
      (ops +. o, accesses +. a))
    (0.0, 0.0) block

and weigh_op op =
  match op with
  | Ir.Load _ | Ir.Store _ -> (1.0, 1.0)
  | Ir.For { lo; hi; step; body; _ } | Ir.ParFor { lo; hi; step; body; _ } ->
    let trip =
      match (lo, hi, step) with
      | Ir.Oint l, Ir.Oint h, Ir.Oint s when Int64.compare s 0L > 0 ->
        Int64.to_float (Int64.div (Int64.sub h l) s)
      | _, _, _ -> float_of_int default_trip
    in
    let ops, accesses = weigh_block body in
    (trip *. (ops +. 1.0), trip *. accesses)
  | Ir.While { cond; body; _ } ->
    let o1, a1 = weigh_block cond in
    let o2, a2 = weigh_block body in
    let trip = float_of_int default_trip in
    (trip *. (o1 +. o2 +. 1.0), trip *. (a1 +. a2))
  | Ir.If { then_; else_; _ } ->
    let o1, a1 = weigh_block then_ in
    let o2, a2 = weigh_block else_ in
    (1.0 +. Float.max o1 o2, Float.max a1 a2)
  | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _ | Ir.Not _ | Ir.I2f _
  | Ir.F2i _ | Ir.Mov _ | Ir.Alloc _ | Ir.Free _ | Ir.Gep _ | Ir.Call _
  | Ir.Ret _ | Ir.Prefetch _ | Ir.FlushEvict _ | Ir.EvictSite _
  | Ir.ProfEnter _ | Ir.ProfExit _ ->
    (1.0, 0.0)

(* Sites each function accesses, including through direct calls (closed
   to a fixpoint: call graphs here are small DAGs). *)
let function_sites facts program results =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, (r : Pattern.result)) -> Hashtbl.replace table name r.Pattern.r_sites)
    results;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (name, _) ->
        let current = try Hashtbl.find table name with Not_found -> [] in
        let from_callees =
          List.concat_map
            (fun callee -> try Hashtbl.find table callee with Not_found -> [])
            (Remotable_flow.callees facts name)
        in
        let merged = List.sort_uniq compare (current @ from_callees) in
        if merged <> current then begin
          Hashtbl.replace table name merged;
          changed := true
        end)
      program.Ir.p_funcs
  done;
  fun name -> try Hashtbl.find table name with Not_found -> []

(* Remotable functions touch only resolvable far objects and their own
   stack data, and call only other remotable functions or intrinsics.
   Fixpoint: start with every locally clean function, then remove the
   ones calling a function outside the set. *)
let remotable_functions facts program results =
  let resolved name =
    match List.assoc_opt name results with
    | Some r -> r.Pattern.r_unresolved = 0
    | None -> false
  in
  let remotable = Hashtbl.create 16 in
  List.iter
    (fun (name, _) ->
      (* The entry function stays on the compute node by definition. *)
      if resolved name && not (String.equal name program.Ir.p_entry) then
        Hashtbl.replace remotable name ())
    program.Ir.p_funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun name () ->
        let bad =
          List.exists
            (fun callee ->
              (not (Hashtbl.mem remotable callee))
              && not (List.mem callee Mira_mir.Verifier.intrinsics))
            (Remotable_flow.callees facts name)
        in
        if bad then begin
          Hashtbl.remove remotable name;
          changed := true
        end)
      (Hashtbl.copy remotable)
  done;
  Hashtbl.mem remotable

let analyze facts results program ~params =
  let remotable = remotable_functions facts program results in
  let sites_of = function_sites facts program results in
  List.filter_map
    (fun (name, f) ->
      if not (remotable name) then None
      else begin
        let compute, far = weigh_block f.Ir.f_body in
        let p = params in
        (* Not offloaded: each far access pays the expected miss cost. *)
        let miss_cost = p.Mira_sim.Params.one_sided_rtt_ns in
        let local_cost = far *. miss_rate *. miss_cost in
        (* Offloaded: compute slows down, far accesses are node-local,
           plus the fixed RPC + flush cost. *)
        let slowdown = p.Mira_sim.Params.remote_compute_slowdown -. 1.0 in
        let remote_cost =
          (compute *. p.Mira_sim.Params.native_op_ns *. slowdown)
          +. p.Mira_sim.Params.rpc_overhead_ns
          +. (2.0 *. p.Mira_sim.Params.two_sided_rtt_ns)
        in
        let benefit = local_cost -. remote_cost in
        Some
          {
            o_name = name;
            o_compute_weight = compute;
            o_far_accesses = far;
            o_sites = sites_of name;
            o_benefit_ns = benefit;
          }
      end)
    program.Ir.p_funcs

let should_offload s = s.o_benefit_ns > 0.0
