(** MLIR-flavoured textual rendering of IR programs.

    Used by tests, by the [fig13] bench target (which reproduces the
    paper's converted/optimized code listings), and for debugging.
    Operations carrying [am_remote] render in the [rmem] dialect;
    heap allocations render as [remotable.alloc]. *)

val func_to_string : Ir.func -> string
val program_to_string : Ir.program -> string
