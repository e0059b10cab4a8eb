module Ir = Mira_mir.Ir
module Types = Mira_mir.Types
module Memsys = Mira_runtime.Memsys
module Sim = Mira_sim

exception Return of Value.t

type frame = {
  regs : Value.t array;  (* registers, then the function's constants *)
  mutable stack_allocs : Value.t list;  (* stack pointers to free on exit *)
}

(* A compiled op or block: runs on thread [tid] against a frame. *)
type code = int -> frame -> unit

type t = {
  ms : Memsys.t;
  program : Ir.program;
  nthreads : int;
  honor_offload : bool;
  prng : Mira_util.Prng.t;
  op_ns : float;
  prof_ns : float;
  clocks : Sim.Clock.t array;  (* per tid, fetched on first use *)
  offload : int array;  (* per tid: offloaded calls in progress *)
  bodies : (string, (code * Value.t array) Lazy.t) Hashtbl.t;
      (* per function: its body and frame template, built on first call *)
  mutable ops : int;
  mutable par_depth : int;
}

let no_clock = Sim.Clock.create ()

let create ?(nthreads = 1) ?(seed = 42) ?(honor_offload = true) ms program =
  Mira_mir.Verifier.verify_exn program;
  let p = Sim.Net.params ms.Memsys.net in
  let nthreads = max 1 nthreads in
  {
    ms;
    program;
    nthreads;
    honor_offload;
    prng = Mira_util.Prng.create seed;
    op_ns = p.Sim.Params.native_op_ns;
    prof_ns = p.Sim.Params.prof_event_ns;
    clocks = Array.make nthreads no_clock;
    offload = Array.make nthreads 0;
    bodies = Hashtbl.create 8;
    ops = 0;
    par_depth = 0;
  }

let ops_executed t = t.ops

(* [Memsys.clock] hands out one clock per thread for good, so the
   machine asks once, when the thread first charges or forks. *)
let[@inline] clock t tid =
  let c = t.clocks.(tid) in
  if c != no_clock then c
  else begin
    let c = t.ms.Memsys.clock ~tid in
    t.clocks.(tid) <- c;
    c
  end

(* Compute goes straight on the thread's clock, one addition per charge
   as [op_cost] would make it; only offloaded compute, which the memory
   system may scale, goes through [op_cost]. *)
let[@inline] charge t tid ns =
  if t.offload.(tid) > 0 then t.ms.Memsys.op_cost ~tid ns
  else Sim.Clock.advance (clock t tid) ns

let[@inline] tick t tid =
  t.ops <- t.ops + 1;
  charge t tid t.op_ns

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

let vbool b = if b then Value.Vbool true else Value.Vbool false  (* static, not allocated *)

let load_len ty = match ty with Types.Unit -> 0 | _ -> 8

let shift_ptr (p : Memsys.ptr) delta =
  { p with Memsys.addr = p.Memsys.addr + delta }

(* Constants get frame slots past the registers, filled once in the
   function's frame template, so every operand is a slot index. *)
type consts = { mutable next : int; mutable values : Value.t list }

let const cx v =
  cx.values <- v :: cx.values;
  cx.next <- cx.next + 1;
  cx.next - 1

let slot cx = function
  | Ir.Oreg r -> r
  | Ir.Oint i -> const cx (Value.Vint i)
  | Ir.Ofloat f -> const cx (Value.Vfloat f)
  | Ir.Obool b -> const cx (Value.Vbool b)
  | Ir.Ounit -> const cx Value.Vunit

(* Every op costs one op of compute, charged before it runs. *)
let rec compile_block t cx block : code =
  let codes = Array.of_list (List.map (compile_op t cx) block) in
  fun tid fr ->
    for i = 0 to Array.length codes - 1 do
      tick t tid;
      codes.(i) tid fr
    done

and compile_op t cx op : code =
  let s = slot cx in
  let unary r a f = let a = s a in fun _ { regs; _ } -> regs.(r) <- f regs.(a) in
  let binary r a b f =
    let a = s a and b = s b in
    fun _ { regs; _ } -> regs.(r) <- f regs.(a) regs.(b)
  in
  match op with
  | Ir.Bin (r, o, a, b) ->
    binary r a b (fun x y -> Value.Vint (int_binop o (Value.as_int x) (Value.as_int y)))
  | Ir.Fbin (r, o, a, b) ->
    binary r a b (fun x y -> Value.Vfloat (float_binop o (Value.as_float x) (Value.as_float y)))
  | Ir.Cmp (r, o, a, b) ->
    binary r a b (fun x y -> vbool (cmp_int o (Value.as_int x) (Value.as_int y)))
  | Ir.Fcmp (r, o, a, b) ->
    binary r a b (fun x y -> vbool (cmp_float o (Value.as_float x) (Value.as_float y)))
  | Ir.Not (r, a) -> unary r a (fun v -> vbool (not (Value.as_bool v)))
  | Ir.I2f (r, a) -> unary r a (fun v -> Value.Vfloat (Int64.to_float (Value.as_int v)))
  | Ir.F2i (r, a) -> unary r a (fun v -> Value.Vint (Int64.of_float (Value.as_float v)))
  | Ir.Mov (r, a) -> unary r a Fun.id
  | Ir.Alloc { dst; site; elem; count; space } ->
    let count = s count and size = Types.size_of elem in
    let heap = match space with Ir.Heap -> true | Ir.Stack -> false in
    fun tid fr ->
      let n = Int64.to_int (Value.as_int fr.regs.(count)) in
      let v = Value.Vptr (t.ms.Memsys.alloc ~tid ~site ~bytes:(max 8 (n * size)) ~heap) in
      if not heap then fr.stack_allocs <- v :: fr.stack_allocs;
      fr.regs.(dst) <- v
  | Ir.Free { ptr; site = _ } ->
    let ptr = s ptr in
    fun tid { regs; _ } -> t.ms.Memsys.free ~tid ~ptr:(Value.as_ptr regs.(ptr))
  | Ir.Gep { dst; base; index; elem; field_off } ->
    let base = s base and index = s index and size = Types.size_of elem in
    fun _ { regs; _ } ->
      let bp = Value.as_ptr regs.(base) in
      let idx = Int64.to_int (Value.as_int regs.(index)) in
      regs.(dst) <- Value.Vptr (shift_ptr bp ((idx * size) + field_off))
  | Ir.Load { dst; ty; ptr; meta } ->
    let ptr = s ptr and len = load_len ty and native = meta.Ir.am_native in
    fun tid { regs; _ } ->
      let pv = Value.as_ptr regs.(ptr) in
      if len = 0 then regs.(dst) <- Value.Vunit
      else regs.(dst) <- Value.decode ty (t.ms.Memsys.load ~tid ~ptr:pv ~len ~native)
  | Ir.Store { ty; ptr; value; meta } ->
    let ptr = s ptr and value = s value in
    let len = load_len ty and native = meta.Ir.am_native in
    fun tid { regs; _ } ->
      let pv = Value.as_ptr regs.(ptr) in
      if len > 0 then
        t.ms.Memsys.store ~tid ~ptr:pv ~len ~native ~value:(Value.encode ty regs.(value))
  | Ir.Call { dst; callee; args } ->
    let call = compile_call t callee (Array.of_list (List.map s args)) in
    fun tid fr -> fr.regs.(dst) <- call tid fr
  | Ir.For { iv; lo; hi; step; body } ->
    let lo = s lo and hi = s hi and step = s step and body = compile_block t cx body in
    fun tid ({ regs; _ } as fr) ->
      let hi = Value.as_int regs.(hi) and step = Value.as_int regs.(step) in
      let i = ref (Value.as_int regs.(lo)) in
      while Int64.compare !i hi < 0 do
        regs.(iv) <- Value.Vint !i;
        body tid fr;
        charge t tid t.op_ns;
        i := Int64.add !i step
      done
  | Ir.ParFor { iv; lo; hi; step; body } ->
    let lo = s lo and hi = s hi and step = s step and body = compile_block t cx body in
    fun tid fr -> exec_parfor t ~tid fr ~iv ~lo ~hi ~step ~body
  | Ir.While { cond; cond_val; body } ->
    let cond = compile_block t cx cond and cond_val = s cond_val in
    let body = compile_block t cx body in
    fun tid fr ->
      cond tid fr;
      while Value.as_bool fr.regs.(cond_val) do
        body tid fr;
        charge t tid t.op_ns;
        cond tid fr
      done
  | Ir.If { cond; then_; else_ } ->
    let cond = s cond in
    let then_ = compile_block t cx then_ and else_ = compile_block t cx else_ in
    fun tid fr -> if Value.as_bool fr.regs.(cond) then then_ tid fr else else_ tid fr
  | Ir.Ret v -> let v = s v in fun _ { regs; _ } -> raise (Return regs.(v))
  | Ir.Prefetch { ptr; len; meta = _ } ->
    let ptr = s ptr in
    fun tid { regs; _ } ->
      if not (Value.is_null regs.(ptr)) then
        t.ms.Memsys.prefetch ~tid ~ptr:(Value.as_ptr regs.(ptr)) ~len
  | Ir.FlushEvict { ptr; len; meta = _ } ->
    let ptr = s ptr in
    fun tid { regs; _ } ->
      if not (Value.is_null regs.(ptr)) then
        t.ms.Memsys.flush_evict ~tid ~ptr:(Value.as_ptr regs.(ptr)) ~len
  | Ir.EvictSite site -> fun tid _ -> t.ms.Memsys.evict_site ~tid ~site
  | Ir.ProfEnter name -> fun tid _ -> charge t tid t.prof_ns; t.ms.Memsys.enter ~tid name
  | Ir.ProfExit name -> fun tid _ -> charge t tid t.prof_ns; t.ms.Memsys.exit_ ~tid name

and exec_parfor t ~tid frame ~iv ~lo ~hi ~step ~body =
  let lo = Value.as_int frame.regs.(lo) in
  let hi = Value.as_int frame.regs.(hi) in
  let step = Value.as_int frame.regs.(step) in
  (* The trip count rounds up: a span that is not a multiple of [step]
     still runs its last, partial step. *)
  let total = Int64.to_int (Int64.div (Int64.add (Int64.sub hi lo) (Int64.pred step)) step) in
  let nthreads = if t.par_depth > 0 || tid <> 0 then 1 else t.nthreads in
  if nthreads = 1 || total <= 1 then begin
    (* Sequential fallback (nested parallelism or tiny trip count). *)
    let i = ref lo in
    while Int64.compare !i hi < 0 do
      frame.regs.(iv) <- Value.Vint !i;
      body tid frame;
      i := Int64.add !i step
    done
  end
  else begin
    t.par_depth <- t.par_depth + 1;
    t.ms.Memsys.set_nthreads nthreads;
    let fork_time = Sim.Clock.now (clock t tid) in
    let chunk = (total + nthreads - 1) / nthreads in
    let max_end = ref fork_time in
    for wtid = 0 to nthreads - 1 do
      let clock = clock t wtid in
      ignore (Sim.Clock.wait_until clock fork_time);
      let first = wtid * chunk in
      let last = min total (first + chunk) in
      let wframe = { regs = Array.copy frame.regs; stack_allocs = [] } in
      for k = first to last - 1 do
        let i = Int64.add lo (Int64.mul (Int64.of_int k) step) in
        wframe.regs.(iv) <- Value.Vint i;
        body wtid wframe
      done;
      List.iter
        (fun v -> t.ms.Memsys.free ~tid:wtid ~ptr:(Value.as_ptr v))
        wframe.stack_allocs;
      max_end := Float.max !max_end (Sim.Clock.now clock)
    done;
    (* Join: every participating clock advances to the barrier. *)
    for worker = 0 to nthreads - 1 do
      ignore (Sim.Clock.wait_until (clock t worker) !max_end)
    done;
    ignore (Sim.Clock.wait_until (clock t tid) !max_end);
    t.ms.Memsys.set_nthreads 1;
    t.par_depth <- t.par_depth - 1
  end

(* A call site, resolved when its caller is compiled: the callee's body
   is compiled on its first call, and a call that cannot run fails when
   it executes. *)
and compile_call t callee args : int -> frame -> Value.t =
  match List.assoc_opt callee t.program.Ir.p_funcs with
  | None -> compile_intrinsic t callee args
  | Some f when Array.length args <> List.length f.Ir.f_params ->
    fun _ _ -> failwith (Printf.sprintf "call @%s: arity mismatch" callee)
  | Some f ->
    let body =
      match Hashtbl.find_opt t.bodies callee with
      | Some body -> body
      | None ->
        let body = lazy (compile_func t f) in
        Hashtbl.replace t.bodies callee body;
        body
    in
    let params = Array.of_list (List.map fst f.Ir.f_params) in
    fun tid fr ->
      let body, template = Lazy.force body in
      charge t tid t.op_ns;
      let frame = { regs = Array.copy template; stack_allocs = [] } in
      for i = 0 to Array.length params - 1 do
        frame.regs.(params.(i)) <- fr.regs.(args.(i))
      done;
      let result =
        if f.Ir.f_offloaded && t.honor_offload then offloaded_call t ~tid f frame body
        else run_body tid frame body
      in
      List.iter (fun v -> t.ms.Memsys.free ~tid ~ptr:(Value.as_ptr v)) frame.stack_allocs;
      result

and compile_func t f =
  let nregs = max 1 f.Ir.f_nregs in
  let cx = { next = nregs; values = [] } in
  let body = compile_block t cx f.Ir.f_body in
  (body, Array.append (Array.make nregs Value.Vunit) (Array.of_list (List.rev cx.values)))

and run_body tid frame body =
  match body tid frame with () -> Value.Vunit | exception Return v -> v

(* §4.8: flush accessed sites, ship arguments, execute on the far node,
   ship the result back, invalidate stale cached lines. *)
and offloaded_call t ~tid f frame body =
  let callee = f.Ir.f_name in
  let attr = t.ms.Memsys.attribution in
  Mira_telemetry.Attribution.set_context attr ~fn:callee ~site:(-1);
  t.ms.Memsys.flush_sites ~tid ~sites:f.Ir.f_offload_sites;
  let clock = clock t tid in
  let args_bytes = 8 * List.length f.Ir.f_params in
  let call_cost = Sim.Rpc.issue t.ms.Memsys.net ~now:(Sim.Clock.now clock) ~args_bytes in
  Sim.Clock.advance clock (Sim.Net.params t.ms.Memsys.net).Sim.Params.msg_cpu_ns;
  let stall = Sim.Clock.wait_until clock call_cost.Sim.Rpc.send_done_at in
  (* The issue wait covers the pre-RPC write fence first, then the
     argument ship on the wire. *)
  let fence_part = Float.min stall (Float.max 0.0 call_cost.Sim.Rpc.fence_wait_ns) in
  Mira_telemetry.Attribution.charge attr Mira_telemetry.Attribution.Fence fence_part;
  Mira_telemetry.Attribution.charge attr Mira_telemetry.Attribution.Demand_wire
    (stall -. fence_part);
  t.ms.Memsys.offload_begin ~tid;
  t.offload.(tid) <- t.offload.(tid) + 1;
  let v = run_body tid frame body in
  t.ms.Memsys.offload_end ~tid;
  t.offload.(tid) <- t.offload.(tid) - 1;
  let done_at =
    Sim.Rpc.complete t.ms.Memsys.net ~body_done_at:(Sim.Clock.now clock) ~ret_bytes:8
  in
  Mira_telemetry.Attribution.set_context attr ~fn:callee ~site:(-1);
  Mira_telemetry.Attribution.charge attr Mira_telemetry.Attribution.Demand_wire
    (Sim.Clock.wait_until clock done_at);
  t.ms.Memsys.discard_sites ~tid ~sites:f.Ir.f_offload_sites;
  v

and compile_intrinsic t name args =
  let float_fn f = fun _ fr -> Value.Vfloat (f (Value.as_float fr.regs.(args.(0)))) in
  match (name, Array.length args) with
  | "rand_int", 1 ->
    fun _ fr ->
      let b = Int64.to_int (Value.as_int fr.regs.(args.(0))) in
      if b <= 0 then Value.Vint 0L
      else Value.Vint (Int64.of_int (Mira_util.Prng.int t.prng b))
  | "exp", 1 -> float_fn exp
  | "sqrt", 1 -> float_fn sqrt
  | "tanh", 1 -> float_fn tanh
  | "log", 1 -> float_fn log
  | "fabs", 1 -> float_fn abs_float
  | _ -> fun _ _ -> failwith (Printf.sprintf "unknown intrinsic %s or bad arity" name)

let run t =
  compile_call t t.program.Ir.p_entry [||] 0 { regs = [||]; stack_allocs = [] }
