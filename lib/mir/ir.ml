type reg = int

type operand =
  | Oreg of reg
  | Oint of int64
  | Ofloat of float
  | Obool of bool
  | Ounit

type binop = Add | Sub | Mul | Div | Rem | Land | Lor | Lxor | Shl | Shr
type fbinop = Fadd | Fsub | Fmul | Fdiv
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type space = Heap | Stack

type access_meta = { am_site : int; am_remote : bool; am_native : bool }

let meta_default = { am_site = -1; am_remote = false; am_native = false }

type op =
  | Bin of reg * binop * operand * operand
  | Fbin of reg * fbinop * operand * operand
  | Cmp of reg * cmpop * operand * operand
  | Fcmp of reg * cmpop * operand * operand
  | Not of reg * operand
  | I2f of reg * operand
  | F2i of reg * operand
  | Mov of reg * operand
  | Alloc of { dst : reg; site : int; elem : Types.ty; count : operand; space : space }
  | Free of { ptr : operand; site : int }
  | Gep of { dst : reg; base : operand; index : operand; elem : Types.ty; field_off : int }
  | Load of { dst : reg; ty : Types.ty; ptr : operand; meta : access_meta }
  | Store of { ty : Types.ty; ptr : operand; value : operand; meta : access_meta }
  | Call of { dst : reg; callee : string; args : operand list }
  | For of { iv : reg; lo : operand; hi : operand; step : operand; body : block }
  | ParFor of { iv : reg; lo : operand; hi : operand; step : operand; body : block }
  | While of { cond : block; cond_val : operand; body : block }
  | If of { cond : operand; then_ : block; else_ : block }
  | Ret of operand
  | Prefetch of { ptr : operand; len : int; meta : access_meta }
  | FlushEvict of { ptr : operand; len : int; meta : access_meta }
  | EvictSite of int
  | ProfEnter of string
  | ProfExit of string

and block = op list

type func = {
  f_name : string;
  f_params : (reg * Types.ty) list;
  f_ret : Types.ty;
  f_body : block;
  f_nregs : int;
  f_remotable : bool;
  f_offloaded : bool;
  f_offload_sites : int list;
}

type site_info = { si_id : int; si_name : string; si_elem : Types.ty }

type program = {
  p_name : string;
  p_funcs : (string * func) list;
  p_entry : string;
  p_sites : site_info list;
}

let find_func p name = List.assoc name p.p_funcs

let find_site p id =
  match List.find_opt (fun s -> s.si_id = id) p.p_sites with
  | Some s -> s
  | None -> raise Not_found

let block_of = function
  | For { body; _ } | ParFor { body; _ } -> [ body ]
  | While { cond; body; _ } -> [ cond; body ]
  | If { then_; else_; _ } -> [ then_; else_ ]
  | Bin _ | Fbin _ | Cmp _ | Fcmp _ | Not _ | I2f _ | F2i _ | Mov _ | Alloc _
  | Free _ | Gep _ | Load _ | Store _ | Call _ | Ret _ | Prefetch _
  | FlushEvict _ | EvictSite _ | ProfEnter _ | ProfExit _ ->
    []

let rec map_ops fn block = List.map (map_op fn) block

and map_op fn op =
  let op =
    match op with
    | For f -> For { f with body = map_ops fn f.body }
    | ParFor f -> ParFor { f with body = map_ops fn f.body }
    | While w -> While { w with cond = map_ops fn w.cond; body = map_ops fn w.body }
    | If i -> If { i with then_ = map_ops fn i.then_; else_ = map_ops fn i.else_ }
    | Bin _ | Fbin _ | Cmp _ | Fcmp _ | Not _ | I2f _ | F2i _ | Mov _ | Alloc _
    | Free _ | Gep _ | Load _ | Store _ | Call _ | Ret _ | Prefetch _
    | FlushEvict _ | EvictSite _ | ProfEnter _ | ProfExit _ ->
      op
  in
  fn op

let rec iter_ops fn block = List.iter (iter_op fn) block

and iter_op fn op =
  fn op;
  List.iter (iter_ops fn) (block_of op)

let fold_ops fn init block =
  let acc = ref init in
  iter_ops (fun op -> acc := fn !acc op) block;
  !acc

let op_count block = fold_ops (fun n _ -> n + 1) 0 block

let rec expand_ops fn block = List.concat_map (expand_op fn) block

and expand_op fn op =
  let op =
    match op with
    | For f -> For { f with body = expand_ops fn f.body }
    | ParFor f -> ParFor { f with body = expand_ops fn f.body }
    | While w ->
      While { w with cond = expand_ops fn w.cond; body = expand_ops fn w.body }
    | If i ->
      If { i with then_ = expand_ops fn i.then_; else_ = expand_ops fn i.else_ }
    | Bin _ | Fbin _ | Cmp _ | Fcmp _ | Not _ | I2f _ | F2i _ | Mov _ | Alloc _
    | Free _ | Gep _ | Load _ | Store _ | Call _ | Ret _ | Prefetch _
    | FlushEvict _ | EvictSite _ | ProfEnter _ | ProfExit _ ->
      op
  in
  fn op
