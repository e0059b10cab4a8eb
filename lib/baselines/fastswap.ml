module Sim = Mira_sim
module Rt = Mira_runtime
module Cache = Mira_cache

let create ?(params = Sim.Params.default) ~local_budget ~far_capacity () =
  let cfg =
    { (Rt.Runtime.config_default ~local_budget ~far_capacity) with
      Rt.Runtime.params }
  in
  let rt = Rt.Runtime.create cfg in
  let swap = Cache.Manager.swap (Rt.Runtime.manager rt) in
  let ms = Rt.Runtime.memsys rt in
  {
    ms with
    Rt.Memsys.name = "fastswap";
    set_nthreads =
      (fun n ->
        ms.Rt.Memsys.set_nthreads n;
        let extra = params.Sim.Params.swap_lock_ns *. float_of_int (max 0 (n - 1)) in
        Cache.Swap_section.set_extra_fault_ns swap extra);
  }
