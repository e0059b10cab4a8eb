(** Convenience construction of IR programs.

    A [t] accumulates functions and allocation sites; an [fb] builds one
    function body with a stack of nested blocks so structured control
    flow reads naturally:

    {[
      let b = Builder.program "graph" in
      Builder.func b "main" [] Types.I64 (fun fb _params ->
          let edges, _site = Builder.alloc fb ~name:"edges" edge_ty n in
          Builder.for_ fb ~lo:(Oint 0L) ~hi:n (fun i ->
              let p = Builder.gep fb ~base:edges ~index:i ~elem:edge_ty () in
              ignore (Builder.load fb Types.I64 p));
          Builder.ret fb (Oint 0L));
      Builder.finish b ~entry:"main"
    ]} *)

type t
type fb

val program : string -> t
(** Fresh program builder. *)

val func :
  t -> string -> (string * Types.ty) list -> Types.ty -> (fb -> Ir.operand list -> unit) -> unit
(** [func b name params ret build] defines a function; [build] receives
    operands for the parameters in order.  Bodies without an explicit
    trailing [ret] get [Ret Ounit] appended. *)

val finish : t -> entry:string -> Ir.program
(** Close the program.  Raises [Invalid_argument] if [entry] is absent. *)

(** {1 Inside a function body} *)

val bin : fb -> Ir.binop -> Ir.operand -> Ir.operand -> Ir.operand
val fbin : fb -> Ir.fbinop -> Ir.operand -> Ir.operand -> Ir.operand
val cmp : fb -> Ir.cmpop -> Ir.operand -> Ir.operand -> Ir.operand
val fcmp : fb -> Ir.cmpop -> Ir.operand -> Ir.operand -> Ir.operand
val i2f : fb -> Ir.operand -> Ir.operand
val f2i : fb -> Ir.operand -> Ir.operand
val mov : fb -> Ir.operand -> Ir.operand

val alloc :
  fb -> name:string -> ?space:Ir.space -> Types.ty -> Ir.operand -> Ir.operand * int
(** [alloc fb ~name elem count] emits a heap (default) or stack
    allocation of [count * size_of elem] bytes and returns the pointer
    operand together with the allocation-site id. *)

val gep :
  fb -> base:Ir.operand -> index:Ir.operand -> elem:Types.ty -> ?field_off:int ->
  unit -> Ir.operand

val field_ptr :
  fb -> base:Ir.operand -> index:Ir.operand -> def:Types.struct_def -> field:string ->
  Ir.operand
(** Pointer to [base[index].field]. *)

val load : fb -> Types.ty -> Ir.operand -> Ir.operand
val store : fb -> Types.ty -> ptr:Ir.operand -> value:Ir.operand -> unit
val call : fb -> string -> Ir.operand list -> Ir.operand

val for_ :
  fb -> lo:Ir.operand -> hi:Ir.operand -> ?step:Ir.operand -> (Ir.operand -> unit) -> unit

val par_for :
  fb -> lo:Ir.operand -> hi:Ir.operand -> ?step:Ir.operand -> (Ir.operand -> unit) -> unit

val while_ : fb -> cond:(unit -> Ir.operand) -> body:(unit -> unit) -> unit

val if_ : fb -> Ir.operand -> (unit -> unit) -> ?else_:(unit -> unit) -> unit -> unit

val ret : fb -> Ir.operand -> unit

val iconst : int -> Ir.operand
(** [Oint (Int64.of_int n)]. *)
