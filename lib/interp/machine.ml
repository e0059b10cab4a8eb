module Ir = Mira_mir.Ir
module Types = Mira_mir.Types
module Memsys = Mira_runtime.Memsys
module Sim = Mira_sim

exception Return of Value.t

type t = {
  ms : Memsys.t;
  program : Ir.program;
  nthreads : int;
  honor_offload : bool;
  prng : Mira_util.Prng.t;
  mutable ops : int;
  mutable par_depth : int;
}

type frame = {
  regs : Value.t array;
  mutable stack_allocs : Value.t list;  (* stack pointers to free on exit *)
}

let create ?(nthreads = 1) ?(seed = 42) ?(honor_offload = true) ms program =
  Mira_mir.Verifier.verify_exn program;
  {
    ms;
    program;
    nthreads = max 1 nthreads;
    honor_offload;
    prng = Mira_util.Prng.create seed;
    ops = 0;
    par_depth = 0;
  }

let ops_executed t = t.ops

let params t = Sim.Net.params t.ms.Memsys.net

let operand frame = function
  | Ir.Oreg r -> frame.regs.(r)
  | Ir.Oint i -> Value.Vint i
  | Ir.Ofloat f -> Value.Vfloat f
  | Ir.Obool b -> Value.Vbool b
  | Ir.Ounit -> Value.Vunit

let int_binop op a b =
  let open Int64 in
  match op with
  | Ir.Add -> add a b
  | Ir.Sub -> sub a b
  | Ir.Mul -> mul a b
  | Ir.Div -> if b = 0L then failwith "division by zero" else div a b
  | Ir.Rem -> if b = 0L then failwith "remainder by zero" else rem a b
  | Ir.Land -> logand a b
  | Ir.Lor -> logor a b
  | Ir.Lxor -> logxor a b
  | Ir.Shl -> shift_left a (to_int b land 63)
  | Ir.Shr -> shift_right_logical a (to_int b land 63)

let float_binop op a b =
  match op with
  | Ir.Fadd -> a +. b
  | Ir.Fsub -> a -. b
  | Ir.Fmul -> a *. b
  | Ir.Fdiv -> a /. b

let cmp_int op a b =
  let c = Int64.compare a b in
  match op with
  | Ir.Eq -> c = 0
  | Ir.Ne -> c <> 0
  | Ir.Lt -> c < 0
  | Ir.Le -> c <= 0
  | Ir.Gt -> c > 0
  | Ir.Ge -> c >= 0

let cmp_float op a b =
  match op with
  | Ir.Eq -> a = b
  | Ir.Ne -> a <> b
  | Ir.Lt -> a < b
  | Ir.Le -> a <= b
  | Ir.Gt -> a > b
  | Ir.Ge -> a >= b

let intrinsic t name args =
  match (name, args) with
  | "rand_int", [ bound ] ->
    let b = Int64.to_int (Value.as_int bound) in
    if b <= 0 then Value.Vint 0L
    else Value.Vint (Int64.of_int (Mira_util.Prng.int t.prng b))
  | "exp", [ x ] -> Value.Vfloat (exp (Value.as_float x))
  | "sqrt", [ x ] -> Value.Vfloat (sqrt (Value.as_float x))
  | "tanh", [ x ] -> Value.Vfloat (tanh (Value.as_float x))
  | "log", [ x ] -> Value.Vfloat (log (Value.as_float x))
  | "fabs", [ x ] -> Value.Vfloat (abs_float (Value.as_float x))
  | _ ->
    failwith (Printf.sprintf "unknown intrinsic %s or bad arity" name)

let load_len ty = match ty with Types.Unit -> 0 | _ -> 8

let shift_ptr (p : Memsys.ptr) delta =
  { p with Memsys.addr = p.Memsys.addr + delta }

let rec exec_block t ~tid frame = function
  | [] -> ()
  | op :: rest ->
    exec_op t ~tid frame op;
    exec_block t ~tid frame rest

and exec_op t ~tid frame op =
  t.ops <- t.ops + 1;
  let p = params t in
  t.ms.Memsys.op_cost ~tid p.Sim.Params.native_op_ns;
  match op with
  | Ir.Bin (r, o, a, b) ->
    frame.regs.(r) <-
      Value.Vint (int_binop o (Value.as_int (operand frame a)) (Value.as_int (operand frame b)))
  | Ir.Fbin (r, o, a, b) ->
    frame.regs.(r) <-
      Value.Vfloat
        (float_binop o (Value.as_float (operand frame a)) (Value.as_float (operand frame b)))
  | Ir.Cmp (r, o, a, b) ->
    frame.regs.(r) <-
      Value.Vbool (cmp_int o (Value.as_int (operand frame a)) (Value.as_int (operand frame b)))
  | Ir.Fcmp (r, o, a, b) ->
    frame.regs.(r) <-
      Value.Vbool
        (cmp_float o (Value.as_float (operand frame a)) (Value.as_float (operand frame b)))
  | Ir.Not (r, a) -> frame.regs.(r) <- Value.Vbool (not (Value.as_bool (operand frame a)))
  | Ir.I2f (r, a) -> frame.regs.(r) <- Value.Vfloat (Int64.to_float (Value.as_int (operand frame a)))
  | Ir.F2i (r, a) -> frame.regs.(r) <- Value.Vint (Int64.of_float (Value.as_float (operand frame a)))
  | Ir.Mov (r, a) -> frame.regs.(r) <- operand frame a
  | Ir.Alloc { dst; site; elem; count; space } ->
    let n = Int64.to_int (Value.as_int (operand frame count)) in
    let bytes = max 8 (n * Types.size_of elem) in
    let heap = match space with Ir.Heap -> true | Ir.Stack -> false in
    let ptr = t.ms.Memsys.alloc ~tid ~site ~bytes ~heap in
    let v = Value.Vptr ptr in
    if not heap then frame.stack_allocs <- v :: frame.stack_allocs;
    frame.regs.(dst) <- v
  | Ir.Free { ptr; site = _ } ->
    t.ms.Memsys.free ~tid ~ptr:(Value.as_ptr (operand frame ptr))
  | Ir.Gep { dst; base; index; elem; field_off } ->
    let bp = Value.as_ptr (operand frame base) in
    let idx = Int64.to_int (Value.as_int (operand frame index)) in
    frame.regs.(dst) <-
      Value.Vptr (shift_ptr bp ((idx * Types.size_of elem) + field_off))
  | Ir.Load { dst; ty; ptr; meta } ->
    let pv = Value.as_ptr (operand frame ptr) in
    let len = load_len ty in
    if len = 0 then frame.regs.(dst) <- Value.Vunit
    else begin
      let bits = t.ms.Memsys.load ~tid ~ptr:pv ~len ~native:meta.Ir.am_native in
      frame.regs.(dst) <- Value.decode ty bits
    end
  | Ir.Store { ty; ptr; value; meta } ->
    let pv = Value.as_ptr (operand frame ptr) in
    let len = load_len ty in
    if len > 0 then begin
      let bits = Value.encode ty (operand frame value) in
      t.ms.Memsys.store ~tid ~ptr:pv ~len ~native:meta.Ir.am_native ~value:bits
    end
  | Ir.Call { dst; callee; args } ->
    let argv = List.map (operand frame) args in
    frame.regs.(dst) <- do_call t ~tid callee argv
  | Ir.For { iv; lo; hi; step; body } ->
    let lo = Value.as_int (operand frame lo) in
    let hi = Value.as_int (operand frame hi) in
    let step = Value.as_int (operand frame step) in
    let i = ref lo in
    while Int64.compare !i hi < 0 do
      frame.regs.(iv) <- Value.Vint !i;
      exec_block t ~tid frame body;
      t.ms.Memsys.op_cost ~tid p.Sim.Params.native_op_ns;
      i := Int64.add !i step
    done
  | Ir.ParFor { iv; lo; hi; step; body } ->
    exec_parfor t ~tid frame ~iv ~lo ~hi ~step ~body
  | Ir.While { cond; cond_val; body } ->
    let continue_ = ref true in
    while !continue_ do
      exec_block t ~tid frame cond;
      if Value.as_bool (operand frame cond_val) then begin
        exec_block t ~tid frame body;
        t.ms.Memsys.op_cost ~tid p.Sim.Params.native_op_ns
      end
      else continue_ := false
    done
  | Ir.If { cond; then_; else_ } ->
    if Value.as_bool (operand frame cond) then exec_block t ~tid frame then_
    else exec_block t ~tid frame else_
  | Ir.Ret v -> raise (Return (operand frame v))
  | Ir.Prefetch { ptr; len; meta = _ } ->
    let pv = operand frame ptr in
    if not (Value.is_null pv) then
      t.ms.Memsys.prefetch ~tid ~ptr:(Value.as_ptr pv) ~len
  | Ir.FlushEvict { ptr; len; meta = _ } ->
    let pv = operand frame ptr in
    if not (Value.is_null pv) then
      t.ms.Memsys.flush_evict ~tid ~ptr:(Value.as_ptr pv) ~len
  | Ir.EvictSite site -> t.ms.Memsys.evict_site ~tid ~site
  | Ir.ProfEnter name ->
    t.ms.Memsys.op_cost ~tid p.Sim.Params.prof_event_ns;
    t.ms.Memsys.enter ~tid name
  | Ir.ProfExit name ->
    t.ms.Memsys.op_cost ~tid p.Sim.Params.prof_event_ns;
    t.ms.Memsys.exit_ ~tid name

and exec_parfor t ~tid frame ~iv ~lo ~hi ~step ~body =
  let lo = Value.as_int (operand frame lo) in
  let hi = Value.as_int (operand frame hi) in
  let step = Value.as_int (operand frame step) in
  let total = Int64.to_int (Int64.div (Int64.sub hi lo) step) in
  let nthreads = if t.par_depth > 0 || tid <> 0 then 1 else t.nthreads in
  if nthreads = 1 || total <= 1 then begin
    (* Sequential fallback (nested parallelism or tiny trip count). *)
    let i = ref lo in
    while Int64.compare !i hi < 0 do
      frame.regs.(iv) <- Value.Vint !i;
      exec_block t ~tid frame body;
      i := Int64.add !i step
    done
  end
  else begin
    t.par_depth <- t.par_depth + 1;
    t.ms.Memsys.set_nthreads nthreads;
    let fork_time = Sim.Clock.now (t.ms.Memsys.clock ~tid) in
    let chunk = (total + nthreads - 1) / nthreads in
    let max_end = ref fork_time in
    for worker = 0 to nthreads - 1 do
      let wtid = worker in
      let clock = t.ms.Memsys.clock ~tid:wtid in
      ignore (Sim.Clock.wait_until clock fork_time);
      let first = worker * chunk in
      let last = min total (first + chunk) in
      let wframe = { regs = Array.copy frame.regs; stack_allocs = [] } in
      for k = first to last - 1 do
        let i = Int64.add lo (Int64.mul (Int64.of_int k) step) in
        wframe.regs.(iv) <- Value.Vint i;
        exec_block t ~tid:wtid wframe body
      done;
      List.iter
        (fun v -> t.ms.Memsys.free ~tid:wtid ~ptr:(Value.as_ptr v))
        wframe.stack_allocs;
      max_end := Float.max !max_end (Sim.Clock.now clock)
    done;
    (* Join: every participating clock advances to the barrier. *)
    for worker = 0 to nthreads - 1 do
      ignore (Sim.Clock.wait_until (t.ms.Memsys.clock ~tid:worker) !max_end)
    done;
    ignore (Sim.Clock.wait_until (t.ms.Memsys.clock ~tid) !max_end);
    t.ms.Memsys.set_nthreads 1;
    t.par_depth <- t.par_depth - 1
  end

and do_call t ~tid callee argv =
  match Ir.find_func t.program callee with
  | exception Not_found -> intrinsic t callee argv
  | f ->
    if List.length argv <> List.length f.Ir.f_params then
      failwith (Printf.sprintf "call @%s: arity mismatch" callee);
    let p = params t in
    t.ms.Memsys.op_cost ~tid p.Sim.Params.native_op_ns;
    let frame = { regs = Array.make (max 1 f.Ir.f_nregs) Value.Vunit; stack_allocs = [] } in
    List.iteri (fun i (r, _) -> frame.regs.(r) <- List.nth argv i) f.Ir.f_params;
    let offloaded = f.Ir.f_offloaded && t.honor_offload in
    let run_body () =
      match exec_block t ~tid frame f.Ir.f_body with
      | () -> Value.Vunit
      | exception Return v -> v
    in
    let result =
      if not offloaded then run_body ()
      else begin
        (* §4.8: flush accessed sites, ship arguments, execute on the far
           node, ship the result back, invalidate stale cached lines. *)
        let attr = t.ms.Memsys.attribution in
        Mira_telemetry.Attribution.set_context attr ~fn:callee ~site:(-1);
        t.ms.Memsys.flush_sites ~tid ~sites:f.Ir.f_offload_sites;
        let clock = t.ms.Memsys.clock ~tid in
        let args_bytes = 8 * List.length argv in
        let call_cost =
          Sim.Rpc.issue t.ms.Memsys.net ~now:(Sim.Clock.now clock) ~args_bytes
        in
        Sim.Clock.advance clock p.Sim.Params.msg_cpu_ns;
        let stall = Sim.Clock.wait_until clock call_cost.Sim.Rpc.send_done_at in
        (* The issue wait covers the pre-RPC write fence first, then the
           argument ship on the wire. *)
        let fence_part =
          Float.min stall (Float.max 0.0 call_cost.Sim.Rpc.fence_wait_ns)
        in
        Mira_telemetry.Attribution.charge attr Mira_telemetry.Attribution.Fence
          fence_part;
        Mira_telemetry.Attribution.charge attr
          Mira_telemetry.Attribution.Demand_wire (stall -. fence_part);
        t.ms.Memsys.offload_begin ~tid;
        let v = run_body () in
        t.ms.Memsys.offload_end ~tid;
        let done_at =
          Sim.Rpc.complete t.ms.Memsys.net ~body_done_at:(Sim.Clock.now clock)
            ~ret_bytes:8
        in
        Mira_telemetry.Attribution.set_context attr ~fn:callee ~site:(-1);
        Mira_telemetry.Attribution.charge attr
          Mira_telemetry.Attribution.Demand_wire
          (Sim.Clock.wait_until clock done_at);
        t.ms.Memsys.discard_sites ~tid ~sites:f.Ir.f_offload_sites;
        v
      end
    in
    List.iter
      (fun v -> t.ms.Memsys.free ~tid ~ptr:(Value.as_ptr v))
      frame.stack_allocs;
    result

let call t name argv = do_call t ~tid:0 name argv

let run t = call t t.program.Ir.p_entry []
