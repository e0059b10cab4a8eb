type space = Local | Far

type ptr = { space : space; addr : int; site : int }

type t = {
  name : string;
  alloc : tid:int -> site:int -> bytes:int -> heap:bool -> ptr;
  free : tid:int -> ptr:ptr -> unit;
  load : tid:int -> ptr:ptr -> len:int -> native:bool -> int64;
  store : tid:int -> ptr:ptr -> len:int -> native:bool -> value:int64 -> unit;
  prefetch : tid:int -> ptr:ptr -> len:int -> unit;
  flush_evict : tid:int -> ptr:ptr -> len:int -> unit;
  evict_site : tid:int -> site:int -> unit;
  flush_sites : tid:int -> sites:int list -> unit;
  discard_sites : tid:int -> sites:int list -> unit;
  clock : tid:int -> Mira_sim.Clock.t;
  op_cost : tid:int -> float -> unit;
  enter : tid:int -> string -> unit;
  exit_ : tid:int -> string -> unit;
  offload_begin : tid:int -> unit;
  offload_end : tid:int -> unit;
  set_nthreads : int -> unit;
  profile : Profile.t;
  net : Mira_sim.Net.t;
  attribution : Mira_telemetry.Attribution.t;
  metadata_bytes : unit -> int;
  reset_timing : unit -> unit;
  elapsed : unit -> float;
}
