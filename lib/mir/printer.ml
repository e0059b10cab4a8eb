let pp_operand ppf = function
  | Ir.Oreg r -> Format.fprintf ppf "%%%d" r
  | Ir.Oint i -> Format.fprintf ppf "%Ld" i
  | Ir.Ofloat f -> Format.fprintf ppf "%g" f
  | Ir.Obool b -> Format.fprintf ppf "%b" b
  | Ir.Ounit -> Format.pp_print_string ppf "()"

let binop_name = function
  | Ir.Add -> "addi"
  | Ir.Sub -> "subi"
  | Ir.Mul -> "muli"
  | Ir.Div -> "divi"
  | Ir.Rem -> "remi"
  | Ir.Land -> "andi"
  | Ir.Lor -> "ori"
  | Ir.Lxor -> "xori"
  | Ir.Shl -> "shli"
  | Ir.Shr -> "shri"

let fbinop_name = function
  | Ir.Fadd -> "addf"
  | Ir.Fsub -> "subf"
  | Ir.Fmul -> "mulf"
  | Ir.Fdiv -> "divf"

let cmpop_name = function
  | Ir.Eq -> "eq"
  | Ir.Ne -> "ne"
  | Ir.Lt -> "lt"
  | Ir.Le -> "le"
  | Ir.Gt -> "gt"
  | Ir.Ge -> "ge"

let mem_dialect (meta : Ir.access_meta) base =
  if meta.Ir.am_native then "rmem." ^ base ^ ".native"
  else if meta.Ir.am_remote then "rmem." ^ base
  else "memref." ^ base

let pp_site ppf (meta : Ir.access_meta) =
  if meta.Ir.am_site >= 0 then Format.fprintf ppf " {site = %d}" meta.Ir.am_site

let rec pp_op_at indent ppf op =
  let pad = String.make indent ' ' in
  match op with
  | Ir.Bin (r, o, a, b) ->
    Format.fprintf ppf "%s%%%d = arith.%s %a, %a" pad r (binop_name o) pp_operand
      a pp_operand b
  | Ir.Fbin (r, o, a, b) ->
    Format.fprintf ppf "%s%%%d = arith.%s %a, %a" pad r (fbinop_name o)
      pp_operand a pp_operand b
  | Ir.Cmp (r, o, a, b) ->
    Format.fprintf ppf "%s%%%d = arith.cmpi %s, %a, %a" pad r (cmpop_name o)
      pp_operand a pp_operand b
  | Ir.Fcmp (r, o, a, b) ->
    Format.fprintf ppf "%s%%%d = arith.cmpf %s, %a, %a" pad r (cmpop_name o)
      pp_operand a pp_operand b
  | Ir.Not (r, a) -> Format.fprintf ppf "%s%%%d = arith.not %a" pad r pp_operand a
  | Ir.I2f (r, a) ->
    Format.fprintf ppf "%s%%%d = arith.sitofp %a" pad r pp_operand a
  | Ir.F2i (r, a) ->
    Format.fprintf ppf "%s%%%d = arith.fptosi %a" pad r pp_operand a
  | Ir.Mov (r, a) -> Format.fprintf ppf "%s%%%d = arith.mov %a" pad r pp_operand a
  | Ir.Alloc { dst; site; elem; count; space } ->
    let dialect =
      match space with Ir.Heap -> "remotable.alloc" | Ir.Stack -> "memref.alloca"
    in
    Format.fprintf ppf "%s%%%d = %s %a x %a {site = %d}" pad dst dialect
      pp_operand count Types.pp elem site
  | Ir.Free { ptr; site } ->
    Format.fprintf ppf "%sremotable.free %a {site = %d}" pad pp_operand ptr site
  | Ir.Gep { dst; base; index; elem; field_off } ->
    Format.fprintf ppf "%s%%%d = memref.gep %a[%a] : %a +%d" pad dst pp_operand
      base pp_operand index Types.pp elem field_off
  | Ir.Load { dst; ty; ptr; meta } ->
    Format.fprintf ppf "%s%%%d = %s %a : %a%a" pad dst (mem_dialect meta "load")
      pp_operand ptr Types.pp ty pp_site meta
  | Ir.Store { ty; ptr; value; meta } ->
    Format.fprintf ppf "%s%s %a, %a : %a%a" pad (mem_dialect meta "store")
      pp_operand value pp_operand ptr Types.pp ty pp_site meta
  | Ir.Call { dst; callee; args } ->
    Format.fprintf ppf "%s%%%d = func.call @%s(%a)" pad dst callee
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_operand)
      args
  | Ir.For { iv; lo; hi; step; body } ->
    Format.fprintf ppf "%sscf.for %%%d = %a to %a step %a {@\n%a@\n%s}" pad iv
      pp_operand lo pp_operand hi pp_operand step
      (pp_block_at (indent + 2))
      body pad
  | Ir.ParFor { iv; lo; hi; step; body } ->
    Format.fprintf ppf "%sscf.parallel %%%d = %a to %a step %a {@\n%a@\n%s}" pad
      iv pp_operand lo pp_operand hi pp_operand step
      (pp_block_at (indent + 2))
      body pad
  | Ir.While { cond; cond_val; body } ->
    Format.fprintf ppf "%sscf.while {@\n%a@\n%s  yield %a@\n%s} do {@\n%a@\n%s}"
      pad
      (pp_block_at (indent + 2))
      cond pad pp_operand cond_val pad
      (pp_block_at (indent + 2))
      body pad
  | Ir.If { cond; then_; else_ } ->
    if else_ = [] then
      Format.fprintf ppf "%sscf.if %a {@\n%a@\n%s}" pad pp_operand cond
        (pp_block_at (indent + 2))
        then_ pad
    else
      Format.fprintf ppf "%sscf.if %a {@\n%a@\n%s} else {@\n%a@\n%s}" pad
        pp_operand cond
        (pp_block_at (indent + 2))
        then_ pad
        (pp_block_at (indent + 2))
        else_ pad
  | Ir.Ret v -> Format.fprintf ppf "%sfunc.return %a" pad pp_operand v
  | Ir.Prefetch { ptr; len; meta } ->
    Format.fprintf ppf "%srmem.prefetch %a, %d%a" pad pp_operand ptr len pp_site
      meta
  | Ir.FlushEvict { ptr; len; meta } ->
    Format.fprintf ppf "%srmem.flush_evict %a, %d%a" pad pp_operand ptr len
      pp_site meta
  | Ir.EvictSite site ->
    Format.fprintf ppf "%srmem.evict_site {site = %d}" pad site
  | Ir.ProfEnter name -> Format.fprintf ppf "%sprof.enter @%s" pad name
  | Ir.ProfExit name -> Format.fprintf ppf "%sprof.exit @%s" pad name

and pp_block_at indent ppf block =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "\n")
    (pp_op_at indent) ppf block

let pp_func ppf (f : Ir.func) =
  let attr =
    match (f.Ir.f_remotable, f.Ir.f_offloaded) with
    | _, true -> " attributes {remotable, offloaded}"
    | true, false -> " attributes {remotable}"
    | false, false -> ""
  in
  Format.fprintf ppf "func.func @%s(%a) -> %a%s {@\n%a@\n}" f.Ir.f_name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (r, ty) -> Format.fprintf ppf "%%%d: %a" r Types.pp ty))
    f.Ir.f_params Types.pp f.Ir.f_ret attr (pp_block_at 2) f.Ir.f_body

let pp_program ppf (p : Ir.program) =
  Format.fprintf ppf "module @%s {@\n" p.Ir.p_name;
  List.iter (fun (_, f) -> Format.fprintf ppf "%a@\n" pp_func f) p.Ir.p_funcs;
  Format.fprintf ppf "}"

let func_to_string f = Format.asprintf "%a" pp_func f
let program_to_string p = Format.asprintf "%a" pp_program p
