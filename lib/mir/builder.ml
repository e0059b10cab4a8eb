type t = {
  pb_name : string;
  mutable pb_funcs : (string * Ir.func) list;  (* reverse order *)
  mutable pb_sites : Ir.site_info list;  (* reverse order *)
  mutable pb_next_site : int;
}

type fb = {
  parent : t;
  mutable next_reg : int;
  mutable blocks : Ir.op list list;  (* stack; each block reversed *)
}

let program name = { pb_name = name; pb_funcs = []; pb_sites = []; pb_next_site = 0 }

let fresh fb =
  let r = fb.next_reg in
  fb.next_reg <- r + 1;
  r

let emit fb op =
  match fb.blocks with
  | top :: rest -> fb.blocks <- (op :: top) :: rest
  | [] -> invalid_arg "Builder.emit: no open block"

let push_block fb = fb.blocks <- [] :: fb.blocks

let pop_block fb =
  match fb.blocks with
  | top :: rest ->
    fb.blocks <- rest;
    List.rev top
  | [] -> invalid_arg "Builder.pop_block: no open block"

let def1 fb make =
  let r = fresh fb in
  emit fb (make r);
  Ir.Oreg r

let bin fb op a b = def1 fb (fun r -> Ir.Bin (r, op, a, b))
let fbin fb op a b = def1 fb (fun r -> Ir.Fbin (r, op, a, b))
let cmp fb op a b = def1 fb (fun r -> Ir.Cmp (r, op, a, b))
let fcmp fb op a b = def1 fb (fun r -> Ir.Fcmp (r, op, a, b))
let i2f fb a = def1 fb (fun r -> Ir.I2f (r, a))
let f2i fb a = def1 fb (fun r -> Ir.F2i (r, a))
let mov fb a = def1 fb (fun r -> Ir.Mov (r, a))

let fresh_site parent ~name ~elem =
  let id = parent.pb_next_site in
  parent.pb_next_site <- id + 1;
  parent.pb_sites <-
    { Ir.si_id = id; si_name = name; si_elem = elem } :: parent.pb_sites;
  id

let alloc fb ~name ?(space = Ir.Heap) elem count =
  let site = fresh_site fb.parent ~name ~elem in
  let ptr = def1 fb (fun dst -> Ir.Alloc { dst; site; elem; count; space }) in
  (ptr, site)

let gep fb ~base ~index ~elem ?(field_off = 0) () =
  def1 fb (fun dst -> Ir.Gep { dst; base; index; elem; field_off })

let field_ptr fb ~base ~index ~def ~field =
  let field_off = Types.field_offset def field in
  gep fb ~base ~index ~elem:(Types.Struct def) ~field_off ()

let load fb ty ptr =
  def1 fb (fun dst -> Ir.Load { dst; ty; ptr; meta = Ir.meta_default })

let store fb ty ~ptr ~value =
  emit fb (Ir.Store { ty; ptr; value; meta = Ir.meta_default })

let call fb callee args = def1 fb (fun dst -> Ir.Call { dst; callee; args })

let loop_common fb ~lo ~hi ?(step = Ir.Oint 1L) build ~parallel =
  let iv = fresh fb in
  push_block fb;
  build (Ir.Oreg iv);
  let body = pop_block fb in
  if parallel then emit fb (Ir.ParFor { iv; lo; hi; step; body })
  else emit fb (Ir.For { iv; lo; hi; step; body })

let for_ fb ~lo ~hi ?step build = loop_common fb ~lo ~hi ?step build ~parallel:false
let par_for fb ~lo ~hi ?step build = loop_common fb ~lo ~hi ?step build ~parallel:true

let while_ fb ~cond ~body =
  push_block fb;
  let cond_val = cond () in
  let cond_block = pop_block fb in
  push_block fb;
  body ();
  let body_block = pop_block fb in
  emit fb (Ir.While { cond = cond_block; cond_val; body = body_block })

let if_ fb cond then_build ?(else_ = fun () -> ()) () =
  push_block fb;
  then_build ();
  let then_ = pop_block fb in
  push_block fb;
  else_ ();
  let else_ = pop_block fb in
  emit fb (Ir.If { cond; then_; else_ })

let ret fb v = emit fb (Ir.Ret v)

let iconst n = Ir.Oint (Int64.of_int n)

let ends_with_ret body =
  match List.rev body with Ir.Ret _ :: _ -> true | _ -> false

let func parent name params ret_ty build =
  let fb = { parent; next_reg = 0; blocks = [] } in
  let param_regs = List.map (fun (_, ty) -> (fresh fb, ty)) params in
  push_block fb;
  build fb (List.map (fun (r, _) -> Ir.Oreg r) param_regs);
  let body = pop_block fb in
  let body = if ends_with_ret body then body else body @ [ Ir.Ret Ir.Ounit ] in
  let f =
    {
      Ir.f_name = name;
      f_params = param_regs;
      f_ret = ret_ty;
      f_body = body;
      f_nregs = fb.next_reg;
      f_remotable = false;
      f_offloaded = false;
      f_offload_sites = [];
    }
  in
  parent.pb_funcs <- (name, f) :: parent.pb_funcs

let finish parent ~entry =
  let funcs = List.rev parent.pb_funcs in
  if not (List.mem_assoc entry funcs) then
    invalid_arg (Printf.sprintf "Builder.finish: entry %S not defined" entry);
  {
    Ir.p_name = parent.pb_name;
    p_funcs = funcs;
    p_entry = entry;
    p_sites = List.rev parent.pb_sites;
  }
