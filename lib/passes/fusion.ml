module Ir = Mira_mir.Ir
module Flow = Mira_analysis.Remotable_flow

let same_operand a b =
  match (a, b) with
  | Ir.Oreg x, Ir.Oreg y -> x = y
  | Ir.Oint x, Ir.Oint y -> Int64.equal x y
  | Ir.Obool x, Ir.Obool y -> x = y
  | Ir.Ofloat x, Ir.Ofloat y -> x = y
  | Ir.Ounit, Ir.Ounit -> true
  | (Ir.Oreg _ | Ir.Oint _ | Ir.Obool _ | Ir.Ofloat _ | Ir.Ounit), _ -> false

(* Effects of a loop body: (sites read, sites written), and whether it
   contains constructs that block fusion. *)
let body_effects regs body =
  let reads = Hashtbl.create 8 in
  let writes = Hashtbl.create 8 in
  let blocked = ref false in
  Ir.iter_ops
    (fun op ->
      match op with
      | Ir.Load { ptr; _ } ->
        let site = Flow.site_of_operand regs ptr in
        if site >= 0 then Hashtbl.replace reads site () else blocked := true
      | Ir.Store { ptr; _ } ->
        let site = Flow.site_of_operand regs ptr in
        if site >= 0 then Hashtbl.replace writes site () else blocked := true
      | Ir.Call _ | Ir.While _ | Ir.ParFor _ | Ir.Alloc _ | Ir.Free _
      | Ir.Ret _ | Ir.EvictSite _ ->
        blocked := true
      | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _ | Ir.Not _ | Ir.I2f _
      | Ir.F2i _ | Ir.Mov _ | Ir.Gep _ | Ir.For _ | Ir.If _ | Ir.Prefetch _
      | Ir.FlushEvict _ | Ir.ProfEnter _ | Ir.ProfExit _ ->
        ())
    body;
  (reads, writes, !blocked)

let hashtbl_keys h = Hashtbl.fold (fun k () acc -> k :: acc) h []

let independent (r1, w1) (r2, w2) =
  let disjoint a b = List.for_all (fun k -> not (Hashtbl.mem b k)) (hashtbl_keys a) in
  (* No write-read, read-write, or write-write overlap across bodies.
     (Same-index elementwise accesses would actually be safe, but the
     conservative rule suffices for the batching the paper exercises.) *)
  disjoint w1 r2 && disjoint w1 w2 && disjoint r1 w2

let fusable_loops regs op1 op2 =
  match (op1, op2) with
  | ( Ir.For { lo = lo1; hi = hi1; step = s1; body = b1; _ },
      Ir.For { lo = lo2; hi = hi2; step = s2; body = b2; _ } ) ->
    same_operand lo1 lo2 && same_operand hi1 hi2 && same_operand s1 s2
    &&
    let r1, w1, blocked1 = body_effects regs b1 in
    let r2, w2, blocked2 = body_effects regs b2 in
    (not blocked1) && (not blocked2) && independent (r1, w1) (r2, w2)
  | _, _ -> false

let fuse op1 op2 =
  match (op1, op2) with
  | Ir.For f1, Ir.For f2 ->
    (* The second loop's iv becomes an alias of the first's. *)
    let alias = Ir.Mov (f2.iv, Ir.Oreg f1.iv) in
    Ir.For { f1 with body = f1.body @ (alias :: f2.body) }
  | _, _ -> invalid_arg "Fusion.fuse: not For loops"

(* One fusion sweep over a block; returns the block and whether anything
   changed. *)
let rec sweep regs block =
  match block with
  | op1 :: op2 :: rest when fusable_loops regs op1 op2 ->
    let fused, _ = sweep regs (fuse op1 op2 :: rest) in
    (fused, true)
  | op :: rest ->
    let op, c1 = sweep_op regs op in
    let rest, c2 = sweep regs rest in
    (op :: rest, c1 || c2)
  | [] -> ([], false)

and sweep_op regs op =
  match op with
  | Ir.For f ->
    let body, c = sweep regs f.body in
    (Ir.For { f with body }, c)
  | Ir.ParFor f ->
    let body, c = sweep regs f.body in
    (Ir.ParFor { f with body }, c)
  | Ir.While w ->
    let cond, c1 = sweep regs w.cond in
    let body, c2 = sweep regs w.body in
    (Ir.While { w with cond; body }, c1 || c2)
  | Ir.If i ->
    let then_, c1 = sweep regs i.then_ in
    let else_, c2 = sweep regs i.else_ in
    (Ir.If { i with then_; else_ }, c1 || c2)
  | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _ | Ir.Not _ | Ir.I2f _
  | Ir.F2i _ | Ir.Mov _ | Ir.Alloc _ | Ir.Free _ | Ir.Gep _ | Ir.Load _
  | Ir.Store _ | Ir.Call _ | Ir.Ret _ | Ir.Prefetch _ | Ir.FlushEvict _
  | Ir.EvictSite _ | Ir.ProfEnter _ | Ir.ProfExit _ ->
    (op, false)

let run_func facts (f : Ir.func) =
  let regs = Flow.regs facts f in
  let rec fixpoint body n =
    if n = 0 then body
    else begin
      let body', changed = sweep regs body in
      if changed then fixpoint body' (n - 1) else body'
    end
  in
  { f with Ir.f_body = fixpoint f.Ir.f_body 8 }

let run facts program =
  { program with Ir.p_funcs = List.map (fun (name, f) -> (name, run_func facts f)) program.Ir.p_funcs }
