module Ir = Mira_mir.Ir
module Types = Mira_mir.Types
module Memsys = Mira_runtime.Memsys
module Sim = Mira_sim
module Attribution = Mira_telemetry.Attribution

exception Return of Value.t

type frame = {
  regs : Value.t array;  (* registers, then the function's constants *)
  mutable stack_allocs : Memsys.ptr list;  (* stack allocations to free on exit *)
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

(* Operand reads: the form an op expects inline, any other through
   [Value]'s coercion (a bool or pointer as an int, an int as a float). *)
let[@inline] int_of = function Value.Vint i -> i | v -> Value.as_int v
let[@inline] float_of = function Value.Vfloat f -> f | v -> Value.as_float v
let[@inline] ptr_of = function Value.Vptr p -> p | v -> Value.as_ptr v
let[@inline] bool_of = function Value.Vbool b -> b | v -> Value.as_bool v
let[@inline] vbool b = if b then Value.Vbool true else Value.Vbool false  (* static *)

let quot a b = if b = 0L then failwith "division by zero" else Int64.div a b
let modulo a b = if b = 0L then failwith "remainder by zero" else Int64.rem a b
let[@inline] shift v = Int64.to_int (int_of v) land 63

(* Each op's closure is picked when it is compiled, per operator and
   per loaded or stored type, and does its work itself.  Float
   comparisons are IEEE: NaN is unordered. *)
let bin r a b : Ir.binop -> code =
  let open Int64 in
  function
  | Ir.Add -> fun _ { regs; _ } -> regs.(r) <- Vint (add (int_of regs.(a)) (int_of regs.(b)))
  | Ir.Sub -> fun _ { regs; _ } -> regs.(r) <- Vint (sub (int_of regs.(a)) (int_of regs.(b)))
  | Ir.Mul -> fun _ { regs; _ } -> regs.(r) <- Vint (mul (int_of regs.(a)) (int_of regs.(b)))
  | Ir.Div -> fun _ { regs; _ } -> regs.(r) <- Vint (quot (int_of regs.(a)) (int_of regs.(b)))
  | Ir.Rem -> fun _ { regs; _ } -> regs.(r) <- Vint (modulo (int_of regs.(a)) (int_of regs.(b)))
  | Ir.Land -> fun _ { regs; _ } -> regs.(r) <- Vint (logand (int_of regs.(a)) (int_of regs.(b)))
  | Ir.Lor -> fun _ { regs; _ } -> regs.(r) <- Vint (logor (int_of regs.(a)) (int_of regs.(b)))
  | Ir.Lxor -> fun _ { regs; _ } -> regs.(r) <- Vint (logxor (int_of regs.(a)) (int_of regs.(b)))
  | Ir.Shl -> fun _ { regs; _ } -> regs.(r) <- Vint (shift_left (int_of regs.(a)) (shift regs.(b)))
  | Ir.Shr ->
    fun _ { regs; _ } -> regs.(r) <- Vint (shift_right_logical (int_of regs.(a)) (shift regs.(b)))

let cmp r a b : Ir.cmpop -> code = function
  | Ir.Eq -> fun _ { regs; _ } -> regs.(r) <- vbool (int_of regs.(a) = int_of regs.(b))
  | Ir.Ne -> fun _ { regs; _ } -> regs.(r) <- vbool (int_of regs.(a) <> int_of regs.(b))
  | Ir.Lt -> fun _ { regs; _ } -> regs.(r) <- vbool (int_of regs.(a) < int_of regs.(b))
  | Ir.Le -> fun _ { regs; _ } -> regs.(r) <- vbool (int_of regs.(a) <= int_of regs.(b))
  | Ir.Gt -> fun _ { regs; _ } -> regs.(r) <- vbool (int_of regs.(a) > int_of regs.(b))
  | Ir.Ge -> fun _ { regs; _ } -> regs.(r) <- vbool (int_of regs.(a) >= int_of regs.(b))

let fbin r a b : Ir.fbinop -> code = function
  | Ir.Fadd -> fun _ { regs; _ } -> regs.(r) <- Vfloat (float_of regs.(a) +. float_of regs.(b))
  | Ir.Fsub -> fun _ { regs; _ } -> regs.(r) <- Vfloat (float_of regs.(a) -. float_of regs.(b))
  | Ir.Fmul -> fun _ { regs; _ } -> regs.(r) <- Vfloat (float_of regs.(a) *. float_of regs.(b))
  | Ir.Fdiv -> fun _ { regs; _ } -> regs.(r) <- Vfloat (float_of regs.(a) /. float_of regs.(b))

let fcmp r a b : Ir.cmpop -> code = function
  | Ir.Eq -> fun _ { regs; _ } -> regs.(r) <- vbool (float_of regs.(a) = float_of regs.(b))
  | Ir.Ne -> fun _ { regs; _ } -> regs.(r) <- vbool (float_of regs.(a) <> float_of regs.(b))
  | Ir.Lt -> fun _ { regs; _ } -> regs.(r) <- vbool (float_of regs.(a) < float_of regs.(b))
  | Ir.Le -> fun _ { regs; _ } -> regs.(r) <- vbool (float_of regs.(a) <= float_of regs.(b))
  | Ir.Gt -> fun _ { regs; _ } -> regs.(r) <- vbool (float_of regs.(a) > float_of regs.(b))
  | Ir.Ge -> fun _ { regs; _ } -> regs.(r) <- vbool (float_of regs.(a) >= float_of regs.(b))

(* Loads and stores move one 8-byte word.  A store reads its pointer,
   then its value, which it encodes as [Value.encode] does. *)
let[@inline] load t tid regs p native = t.ms.Memsys.load ~tid ~ptr:(ptr_of regs.(p)) ~len:8 ~native
let[@inline] store t tid pv native bits = t.ms.Memsys.store ~tid ~ptr:pv ~len:8 ~native ~value:bits

let load_op t dst ty ptr native : code =
  match ty with
  | Types.I64 -> fun tid { regs; _ } -> regs.(dst) <- Vint (load t tid regs ptr native)
  | Types.F64 ->
    fun tid { regs; _ } -> regs.(dst) <- Vfloat (Int64.float_of_bits (load t tid regs ptr native))
  | Types.Bool -> fun tid { regs; _ } -> regs.(dst) <- vbool (load t tid regs ptr native <> 0L)
  | Types.Ptr _ ->
    fun tid { regs; _ } -> regs.(dst) <- Vptr (Value.bits_ptr (load t tid regs ptr native))
  | Types.Unit -> fun _ { regs; _ } -> ignore (ptr_of regs.(ptr)); regs.(dst) <- Vunit
  | Types.Struct _ ->
    fun tid { regs; _ } -> regs.(dst) <- Value.decode ty (load t tid regs ptr native)

let store_op t ty ptr value native : code =
  match ty with
  | Types.I64 | Types.Bool ->
    fun tid { regs; _ } ->
      let pv = ptr_of regs.(ptr) in store t tid pv native (int_of regs.(value))
  | Types.F64 ->
    fun tid { regs; _ } ->
      let pv = ptr_of regs.(ptr) in
      store t tid pv native (Int64.bits_of_float (float_of regs.(value)))
  | Types.Ptr _ ->
    fun tid { regs; _ } ->
      let pv = ptr_of regs.(ptr) in
      store t tid pv native (Value.ptr_bits (ptr_of regs.(value)))
  | Types.Unit -> fun _ { regs; _ } -> ignore (ptr_of regs.(ptr))
  | Types.Struct _ ->
    fun tid { regs; _ } ->
      let pv = ptr_of regs.(ptr) in store t tid pv native (Value.encode ty regs.(value))

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
  match op with
  | Ir.Bin (r, o, a, b) -> bin r (s a) (s b) o
  | Ir.Cmp (r, o, a, b) -> cmp r (s a) (s b) o
  | Ir.Fbin (r, o, a, b) -> fbin r (s a) (s b) o
  | Ir.Fcmp (r, o, a, b) -> fcmp r (s a) (s b) o
  | Ir.Not (r, a) -> let a = s a in fun _ { regs; _ } -> regs.(r) <- vbool (not (bool_of regs.(a)))
  | Ir.I2f (r, a) ->
    let a = s a in fun _ { regs; _ } -> regs.(r) <- Vfloat (Int64.to_float (int_of regs.(a)))
  | Ir.F2i (r, a) ->
    let a = s a in fun _ { regs; _ } -> regs.(r) <- Vint (Int64.of_float (float_of regs.(a)))
  | Ir.Mov (r, a) -> let a = s a in fun _ { regs; _ } -> regs.(r) <- regs.(a)
  | Ir.Alloc { dst; site; elem; count; space } ->
    let count = s count and size = Types.size_of elem in
    let heap = match space with Ir.Heap -> true | Ir.Stack -> false in
    fun tid fr ->
      let n = Int64.to_int (int_of fr.regs.(count)) in
      let p = t.ms.Memsys.alloc ~tid ~site ~bytes:(max 8 (n * size)) ~heap in
      if not heap then fr.stack_allocs <- p :: fr.stack_allocs;
      fr.regs.(dst) <- Vptr p
  | Ir.Free { ptr; site = _ } ->
    let ptr = s ptr in
    fun tid { regs; _ } -> t.ms.Memsys.free ~tid ~ptr:(ptr_of regs.(ptr))
  | Ir.Gep { dst; base; index; elem; field_off } ->
    let base = s base and index = s index and size = Types.size_of elem in
    fun _ { regs; _ } ->
      let bp = ptr_of regs.(base) in
      let idx = Int64.to_int (int_of regs.(index)) in
      regs.(dst) <- Vptr { bp with Memsys.addr = bp.Memsys.addr + (idx * size) + field_off }
  | Ir.Load { dst; ty; ptr; meta } -> load_op t dst ty (s ptr) meta.Ir.am_native
  | Ir.Store { ty; ptr; value; meta } -> store_op t ty (s ptr) (s value) meta.Ir.am_native
  | Ir.Call { dst; callee; args } ->
    let call = compile_call t callee (Array.of_list (List.map s args)) in
    fun tid fr -> fr.regs.(dst) <- call tid fr
  | Ir.For { iv; lo; hi; step; body } ->
    let lo = s lo and hi = s hi and step = s step and body = compile_block t cx body in
    fun tid ({ regs; _ } as fr) ->
      let hi = int_of regs.(hi) and step = int_of regs.(step) in
      let i = ref (int_of regs.(lo)) in
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
      while bool_of fr.regs.(cond_val) do
        body tid fr;
        charge t tid t.op_ns;
        cond tid fr
      done
  | Ir.If { cond; then_; else_ } ->
    let cond = s cond in
    let then_ = compile_block t cx then_ and else_ = compile_block t cx else_ in
    fun tid fr -> if bool_of fr.regs.(cond) then then_ tid fr else else_ tid fr
  | Ir.Ret v -> let v = s v in fun _ { regs; _ } -> raise (Return regs.(v))
  | Ir.Prefetch { ptr; len; meta = _ } ->
    let ptr = s ptr in
    fun tid { regs; _ } ->
      if not (Value.is_null regs.(ptr)) then
        t.ms.Memsys.prefetch ~tid ~ptr:(ptr_of regs.(ptr)) ~len
  | Ir.FlushEvict { ptr; len; meta = _ } ->
    let ptr = s ptr in
    fun tid { regs; _ } ->
      if not (Value.is_null regs.(ptr)) then
        t.ms.Memsys.flush_evict ~tid ~ptr:(ptr_of regs.(ptr)) ~len
  | Ir.EvictSite site -> fun tid _ -> t.ms.Memsys.evict_site ~tid ~site
  | Ir.ProfEnter name -> fun tid _ -> charge t tid t.prof_ns; t.ms.Memsys.enter ~tid name
  | Ir.ProfExit name -> fun tid _ -> charge t tid t.prof_ns; t.ms.Memsys.exit_ ~tid name

and exec_parfor t ~tid frame ~iv ~lo ~hi ~step ~body =
  let lo = int_of frame.regs.(lo) and hi = int_of frame.regs.(hi) in
  let step = int_of frame.regs.(step) in
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
      List.iter (fun ptr -> t.ms.Memsys.free ~tid:wtid ~ptr) wframe.stack_allocs;
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
      List.iter (fun ptr -> t.ms.Memsys.free ~tid ~ptr) frame.stack_allocs;
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
  Attribution.set_context attr ~fn:callee ~site:(-1);
  t.ms.Memsys.flush_sites ~tid ~sites:f.Ir.f_offload_sites;
  let clock = clock t tid in
  let args_bytes = 8 * List.length f.Ir.f_params in
  let call_cost = Sim.Rpc.issue t.ms.Memsys.net ~now:(Sim.Clock.now clock) ~args_bytes in
  Sim.Clock.advance clock (Sim.Net.params t.ms.Memsys.net).Sim.Params.msg_cpu_ns;
  let stall = Sim.Clock.wait_until clock call_cost.Sim.Rpc.send_done_at in
  (* The issue wait covers the pre-RPC write fence first, then the
     argument ship on the wire. *)
  let fence_part = Float.min stall (Float.max 0.0 call_cost.Sim.Rpc.fence_wait_ns) in
  Attribution.charge attr Attribution.Fence fence_part;
  Attribution.charge attr Attribution.Demand_wire (stall -. fence_part);
  t.ms.Memsys.offload_begin ~tid;
  t.offload.(tid) <- t.offload.(tid) + 1;
  let v = run_body tid frame body in
  t.ms.Memsys.offload_end ~tid;
  t.offload.(tid) <- t.offload.(tid) - 1;
  let done_at = Sim.Rpc.complete t.ms.Memsys.net ~body_done_at:(Sim.Clock.now clock) ~ret_bytes:8 in
  Attribution.set_context attr ~fn:callee ~site:(-1);
  Attribution.charge attr Attribution.Demand_wire (Sim.Clock.wait_until clock done_at);
  t.ms.Memsys.discard_sites ~tid ~sites:f.Ir.f_offload_sites;
  v

and compile_intrinsic t name args =
  let float_fn f = fun _ fr -> Value.Vfloat (f (float_of fr.regs.(args.(0)))) in
  match (name, Array.length args) with
  | "rand_int", 1 ->
    fun _ fr ->
      let b = Int64.to_int (int_of fr.regs.(args.(0))) in
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
