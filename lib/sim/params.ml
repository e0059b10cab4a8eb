type t = {
  native_op_ns : float;
  native_mem_ns : float;
  hit_direct_ns : float;
  hit_set_ns : float;
  hit_full_ns : float;
  one_sided_rtt_ns : float;
  two_sided_rtt_ns : float;
  bandwidth_bytes_per_ns : float;
  msg_cpu_ns : float;
  async_post_ns : float;
  remote_copy_ns_per_byte : float;
  page_fault_ns : float;
  page_size : int;
  aifm_deref_ns : float;
  aifm_elem_meta_bytes : int;
  aifm_obj_meta_bytes : int;
  remote_compute_slowdown : float;
  rpc_overhead_ns : float;
  evict_check_ns : float;
  prof_event_ns : float;
  swap_lock_ns : float;
}

let default =
  {
    native_op_ns = 1.0;
    native_mem_ns = 2.0;
    hit_direct_ns = 10.0;
    hit_set_ns = 18.0;
    hit_full_ns = 45.0;
    one_sided_rtt_ns = 3_000.0;
    two_sided_rtt_ns = 3_600.0;
    bandwidth_bytes_per_ns = 6.25;
    msg_cpu_ns = 300.0;
    async_post_ns = 50.0;
    remote_copy_ns_per_byte = 0.05;
    page_fault_ns = 8_000.0;
    page_size = 4096;
    aifm_deref_ns = 35.0;
    aifm_elem_meta_bytes = 16;
    aifm_obj_meta_bytes = 64;
    remote_compute_slowdown = 2.5;
    rpc_overhead_ns = 5_000.0;
    evict_check_ns = 4.0;
    prof_event_ns = 15.0;
    swap_lock_ns = 1_500.0;
  }
