(* Cross-layer stall attribution: every simulated nanosecond a thread
   spends stalled on far memory is charged to exactly one cause bucket
   and to the (function, alloc site, section, tenant) it happened under.

   Conservation is the design center.  Floating-point addition is not
   associative, so deriving "total" and "per-bucket" sums from floats
   in different fold orders would leave ulp-sized unattributed
   remainders.  The ledger therefore stores fixed-point integers
   (2^-16 ns units, ~15 fs resolution, 2^47 ns ≈ 39 simulated hours of
   headroom): integer addition is associative, so the per-cause totals,
   the per-key cells, and the online grand total agree bit-exactly no
   matter the iteration order.  [check] is a double-entry audit — every
   charge adds to one cell, one per-cause running total, and the grand
   total, and a dropped or duplicated cell update (a context-key
   aliasing bug, a reset bug) shows up as a non-zero remainder in a
   {e named} bucket.

   The ledger also holds the running tenant's context and the tenant
   interference matrix: a [Queueing] charge is split, in the same fixed
   point, over the tenants that held the net window, so each waiter's
   interference row equals its queue-stall bucket by construction. *)

type cause =
  | Demand_wire
  | Queueing
  | Retry
  | Fence
  | Writeback
  | Failover_recovery
  | Reconfig
  | Reconstruct

let causes =
  [ Demand_wire; Queueing; Retry; Fence; Writeback; Failover_recovery; Reconfig;
    Reconstruct ]

let cause_name = function
  | Demand_wire -> "demand_wire"
  | Queueing -> "queueing"
  | Retry -> "retry"
  | Fence -> "fence"
  | Writeback -> "writeback"
  | Failover_recovery -> "failover_recovery"
  | Reconfig -> "reconfig"
  | Reconstruct -> "reconstruct"

let cause_index = function
  | Demand_wire -> 0
  | Queueing -> 1
  | Retry -> 2
  | Fence -> 3
  | Writeback -> 4
  | Failover_recovery -> 5
  | Reconfig -> 6
  | Reconstruct -> 7

let ncauses = 8
let cause_of_index i = List.nth causes i

(* 2^16 fixed-point units per nanosecond. *)
let fp_scale = 65536.0

let fp_of_ns ns = Int64.of_float (ns *. fp_scale)
let ns_of_fp fp = Int64.to_float fp /. fp_scale

(* [k_tenant] is deliberately the last field: cells that used to be one
   per (fn, site, section, cause) may now split per tenant, but the
   polymorphic-compare sort in [fold] keeps those splits adjacent, so
   every grouped view ([by_section], [by_site], [by_function], the
   folded flame stacks) emits labels in exactly the pre-tenant order. *)
type key = {
  k_fn : string;  (* innermost profiled function, "(runtime)" if none *)
  k_site : int;  (* allocation site, -1 when not site-bound *)
  k_section : string;  (* cache section name, "-" outside any section *)
  k_cause : int;
  k_tenant : int;  (* tenant context, -1 when not tenant-bound *)
}

(* A cell is found by the key's ints and its strings' lengths: the
   generic hash would walk both strings on every charge. *)
module Cells = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.k_site = b.k_site && a.k_cause = b.k_cause && a.k_tenant = b.k_tenant
    && String.equal a.k_fn b.k_fn && String.equal a.k_section b.k_section

  let hash k =
    Mira_util.Misc.hash_int
      ((((((k.k_site * 31) + k.k_cause) * 31) + k.k_tenant) * 31)
      + (String.length k.k_fn * 7) + String.length k.k_section)
end)

type t = {
  cells : int64 ref Cells.t;
  mutable total : int64;  (* online double-entry mirror of the cells *)
  cause_fp : int64 array;  (* online per-cause mirror, for named audits *)
  mutable enabled : bool;
  mutable ctx_fn : string;
  mutable ctx_site : int;
  mutable ctx_tenant : int;
  interference : (int * int, int64 ref) Hashtbl.t;
      (* (waiter, holder) -> fp: every [Queueing] charge split over the
         tenants that held the net window, so each waiter's cells sum
         to its queue-stall bucket by construction *)
}

let no_fn = "(runtime)"
let no_section = "-"

let create () =
  {
    cells = Cells.create 64;
    total = 0L;
    cause_fp = Array.make ncauses 0L;
    enabled = true;
    ctx_fn = no_fn;
    ctx_site = -1;
    ctx_tenant = -1;
    interference = Hashtbl.create 16;
  }

let set_enabled t on = t.enabled <- on

(* Accesses mostly repeat the context: a string store is skipped when
   [fn] is the very string already set, keeping the write barrier off
   the access path. *)
let set_context t ~fn ~site =
  if fn != t.ctx_fn then t.ctx_fn <- fn;
  t.ctx_site <- site

let set_tenant t tenant = t.ctx_tenant <- tenant

let clear_context t =
  t.ctx_fn <- no_fn;
  t.ctx_site <- -1;
  t.ctx_tenant <- -1

let context_fn t = t.ctx_fn
let context_site t = t.ctx_site
let context_tenant t = t.ctx_tenant

let reset t =
  Cells.reset t.cells;
  Hashtbl.reset t.interference;
  t.total <- 0L;
  Array.fill t.cause_fp 0 ncauses 0L;
  t.ctx_fn <- no_fn;
  t.ctx_site <- -1;
  t.ctx_tenant <- -1

let add_cell t key fp =
  (match Cells.find t.cells key with
  | cell -> cell := Int64.add !cell fp
  | exception Not_found -> Cells.add t.cells key (ref fp));
  t.cause_fp.(key.k_cause) <- Int64.add t.cause_fp.(key.k_cause) fp;
  t.total <- Int64.add t.total fp

let queueing_index = cause_index Queueing

let bump_interference t cell fp =
  match Hashtbl.find_opt t.interference cell with
  | Some r -> r := Int64.add !r fp
  | None -> Hashtbl.replace t.interference cell (ref fp)

(* Split [fp] of the context tenant's queue stall over [holders] =
   [(tenant, slots)] pairs: pro-rata by slot count, the division
   remainder to the last holder in the given (tenant-sorted) order, so
   the split is exact in int64.  No holders = a self-charge (link
   backlog or doorbell batching, not window contention). *)
let split_queueing t ~holders fp =
  let waiter = t.ctx_tenant in
  match holders with
  | [] -> bump_interference t (waiter, waiter) fp
  | holders ->
    let slots = List.fold_left (fun a (_, n) -> a + n) 0 holders |> Int64.of_int in
    let rec go spent = function
      | [] -> ()
      | [ (h, _) ] -> bump_interference t (waiter, h) (Int64.sub fp spent)
      | (h, n) :: rest ->
        let share = Int64.div (Int64.mul fp (Int64.of_int n)) slots in
        bump_interference t (waiter, h) share;
        go (Int64.add spent share) rest
    in
    go 0L holders

let charge t ?(section = no_section) ?(holders = []) cause ns =
  if t.enabled && ns > 0.0 then begin
    let fp = fp_of_ns ns in
    if fp > 0L then begin
      let idx = cause_index cause in
      add_cell t
        { k_fn = t.ctx_fn; k_site = t.ctx_site; k_section = section;
          k_cause = idx; k_tenant = t.ctx_tenant }
        fp;
      (* Same guard, same fixed-point amount: whatever lands in the
         queueing bucket is exactly what the interference row gets. *)
      if idx = queueing_index then split_queueing t ~holders fp
    end
  end

let charge_parts t ?section ?holders parts =
  List.iter (fun (cause, ns) -> charge t ?section ?holders cause ns) parts

(* Split a measured stall over the completion's latency components,
   tail-first: the stall is the final [stall] ns of the request's
   latency interval, whose tail is the successful attempt's wire time,
   preceded by retry windows, preceded by queueing.  Residual
   subtraction keeps the parts summing exactly to [stall]. *)
let split_stall ~stall ~wire_ns ~queue_ns ~retry_ns =
  ignore queue_ns;
  if stall <= 0.0 then []
  else begin
    let wire = Float.min stall (Float.max 0.0 wire_ns) in
    let rem = stall -. wire in
    let retry = Float.min rem (Float.max 0.0 retry_ns) in
    let queue = rem -. retry in
    [ (Demand_wire, wire); (Retry, retry); (Queueing, queue) ]
  end

(* Test hook: unbalance the online totals without touching any cell, so
   the audit-failure path (unreachable through [charge]) can be
   exercised and its error message pinned. *)
let unbalance_for_test t cause fp =
  t.cause_fp.(cause_index cause) <- Int64.add t.cause_fp.(cause_index cause) fp;
  t.total <- Int64.add t.total fp

(* --- derived views -------------------------------------------------------- *)

let fold t fn acc =
  (* Deterministic iteration order for reproducible reports. *)
  let items = Cells.fold (fun k v acc -> (k, !v) :: acc) t.cells [] in
  let items = List.sort compare items in
  List.fold_left (fun acc (k, v) -> fn acc k v) acc items

let total_ns t = ns_of_fp t.total

let cause_totals_fp t =
  let sums = Array.make ncauses 0L in
  fold t
    (fun () k v -> sums.(k.k_cause) <- Int64.add sums.(k.k_cause) v)
    ();
  sums

let cause_ns t cause = ns_of_fp (cause_totals_fp t).(cause_index cause)

let by_cause t =
  let sums = cause_totals_fp t in
  List.map (fun c -> (c, ns_of_fp sums.(cause_index c))) causes

let check t =
  let sums = cause_totals_fp t in
  let mismatch =
    List.find_opt (fun c -> sums.(cause_index c) <> t.cause_fp.(cause_index c))
      causes
  in
  match mismatch with
  | Some c ->
    let i = cause_index c in
    let delta = Int64.sub t.cause_fp.(i) sums.(i) in
    Error
      (Printf.sprintf
         "attribution ledger out of balance in bucket '%s': cells sum to %Ld \
          fp but %Ld fp were charged (unattributed remainder %Ld fp = %.6f ns)"
         (cause_name c) sums.(i) t.cause_fp.(i) delta (ns_of_fp delta))
  | None ->
    let cells_total = Array.fold_left Int64.add 0L sums in
    if Int64.equal cells_total t.total then Ok ()
    else
      let delta = Int64.sub t.total cells_total in
      Error
        (Printf.sprintf
           "attribution ledger out of balance: per-cause totals agree but the \
            grand total differs by %Ld fp = %.6f ns"
           delta (ns_of_fp delta))

let unattributed_ns t =
  let sums = cause_totals_fp t in
  let cells_total = Array.fold_left Int64.add 0L sums in
  ns_of_fp (Int64.sub t.total cells_total)

let tenant_cause_fp t ~tenant cause =
  let idx = cause_index cause in
  Cells.fold
    (fun k v acc ->
      if k.k_tenant = tenant && k.k_cause = idx then Int64.add acc !v else acc)
    t.cells 0L

let interference_cells t =
  Hashtbl.fold (fun (w, h) r acc -> (w, h, !r) :: acc) t.interference []
  |> List.sort compare

let interference_rows t =
  List.fold_left
    (fun rows (w, _, fp) ->
      match rows with
      | (w', sum) :: rest when w' = w -> (w, Int64.add sum fp) :: rest
      | _ -> (w, fp) :: rows)
    [] (interference_cells t)
  |> List.rev

let site_label site = if site < 0 then "-" else Printf.sprintf "site%d" site
let tenant_label tn = if tn < 0 then "-" else Printf.sprintf "t%d" tn

(* Group cells under an outer label, keeping per-cause fixed-point sums. *)
let grouped t label_of =
  let groups : (string, int64 array) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  fold t
    (fun () k v ->
      let label = label_of k in
      let sums =
        match Hashtbl.find_opt groups label with
        | Some sums -> sums
        | None ->
          let sums = Array.make ncauses 0L in
          Hashtbl.replace groups label sums;
          order := label :: !order;
          sums
      in
      sums.(k.k_cause) <- Int64.add sums.(k.k_cause) v)
    ();
  List.rev_map (fun label -> (label, Hashtbl.find groups label)) !order

let group_rows t label_of =
  List.map
    (fun (label, sums) ->
      let total = Array.fold_left Int64.add 0L sums in
      ( label,
        ns_of_fp total,
        List.map (fun c -> (c, ns_of_fp sums.(cause_index c))) causes ))
    (grouped t label_of)

let by_section t = group_rows t (fun k -> k.k_section)
let by_site t = group_rows t (fun k -> site_label k.k_site)
let by_function t = group_rows t (fun k -> k.k_fn)
let by_tenant t = group_rows t (fun k -> tenant_label k.k_tenant)

(* --- folded flame stacks -------------------------------------------------- *)

(* One line per [fn;site;cause], count in whole nanoseconds — the
   format FlameGraph's flamegraph.pl and speedscope both load. *)
let folded t =
  let stacks : (string, int64) Hashtbl.t = Hashtbl.create 64 in
  fold t
    (fun () k v ->
      let stack =
        Printf.sprintf "%s;%s;%s" k.k_fn (site_label k.k_site)
          (cause_name (cause_of_index k.k_cause))
      in
      let cur = Option.value ~default:0L (Hashtbl.find_opt stacks stack) in
      Hashtbl.replace stacks stack (Int64.add cur v))
    ();
  let lines =
    Hashtbl.fold
      (fun stack fp acc ->
        (stack, Int64.of_float (Float.round (ns_of_fp fp))) :: acc)
      stacks []
    |> List.filter (fun (_, n) -> n > 0L)
    |> List.sort compare
  in
  String.concat ""
    (List.map (fun (stack, n) -> Printf.sprintf "%s %Ld\n" stack n) lines)

(* --- export --------------------------------------------------------------- *)

let causes_json sums_row =
  Json.Obj
    (List.map (fun (c, ns) -> (cause_name c, Json.Float ns)) sums_row)

let rows_json rows =
  Json.Obj
    (List.map
       (fun (label, total, row) ->
         ( label,
           Json.Obj
             (("total_ns", Json.Float total)
             :: List.filter_map
                  (fun (c, ns) ->
                    if ns > 0.0 then Some (cause_name c, Json.Float ns)
                    else None)
                  row) ))
       rows)

let to_json t =
  let conserved = match check t with Ok () -> true | Error _ -> false in
  Json.Obj
    [
      ("total_ns", Json.Float (total_ns t));
      ("unattributed_ns", Json.Float (unattributed_ns t));
      ("conserved", Json.Bool conserved);
      ("by_cause", causes_json (by_cause t));
      ("by_section", rows_json (by_section t));
      ("by_site", rows_json (by_site t));
      ("by_function", rows_json (by_function t));
      ("by_tenant", rows_json (by_tenant t));
    ]

let publish t reg =
  List.iter
    (fun (c, ns) ->
      Metrics.set_gauge reg (Printf.sprintf "stall.%s_ns" (cause_name c)) ns)
    (by_cause t)
