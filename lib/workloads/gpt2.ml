module Ir = Mira_mir.Ir
module B = Mira_mir.Builder
module T = Mira_mir.Types

type config = {
  layers : int;
  d_model : int;
  seq : int;
  seed : int;
  parallel : bool;
}

let config_default = { layers = 4; d_model = 24; seq = 12; seed = 3; parallel = false }

(* Per-layer weights: Wqkv (3d x d), Wproj (d x d), Wff1 (4d x d),
   Wff2 (d x 4d), all stored output-major (transposed for row-sequential
   dot products). *)
let layer_weight_bytes cfg =
  let d = cfg.d_model in
  8 * ((3 * d * d) + (d * d) + (4 * d * d) + (4 * d * d))

let scratch_bytes cfg =
  let d = cfg.d_model and s = cfg.seq in
  8 * ((s * d) + (s * 3 * d) + (s * d) + (s * 4 * d))

let kv_bytes cfg = 8 * (cfg.seq * 2 * cfg.d_model)

let far_bytes cfg =
  scratch_bytes cfg + (cfg.layers * (layer_weight_bytes cfg + kv_bytes cfg))

let aifm_gran program site = Workload_util.chunked_gran ~chunk:4096 program site

let params =
  { Mira_sim.Params.default with Mira_sim.Params.native_op_ns = 0.05;
    native_mem_ns = 0.3 }

(* c[i*n+j] is produced by [emit fb acc_value i j] *)
let matmul cfg fb ~m ~n ~k ~a ~bt ~emit =
  let loop = if cfg.parallel then B.par_for else B.for_ in
  loop fb ~lo:(B.iconst 0) ~hi:(B.iconst m) (fun i ->
      let acc, _ = B.alloc fb ~name:"mm_acc" ~space:Ir.Stack T.F64 (B.iconst 1) in
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun j ->
          B.store fb T.F64 ~ptr:acc ~value:(Ir.Ofloat 0.0);
          let row_a = B.bin fb Ir.Mul i (B.iconst k) in
          let row_b = B.bin fb Ir.Mul j (B.iconst k) in
          B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst k) (fun kk ->
              let ia = B.bin fb Ir.Add row_a kk in
              let av = B.load fb T.F64 (B.gep fb ~base:a ~index:ia ~elem:T.F64 ()) in
              let ib = B.bin fb Ir.Add row_b kk in
              let bv = B.load fb T.F64 (B.gep fb ~base:bt ~index:ib ~elem:T.F64 ()) in
              let s = B.load fb T.F64 acc in
              let s' = B.fbin fb Ir.Fadd s (B.fbin fb Ir.Fmul av bv) in
              B.store fb T.F64 ~ptr:acc ~value:s');
          let v = B.load fb T.F64 acc in
          emit fb v i j))

let build cfg =
  let b = B.program "gpt2" in
  let d = cfg.d_model and s = cfg.seq in
  let col = T.Ptr T.F64 in
  let scratch_names = [ "x"; "qkv"; "attn"; "hbuf" ] in
  let layer_names l =
    [ Printf.sprintf "w%d_qkv" l; Printf.sprintf "w%d_proj" l;
      Printf.sprintf "w%d_ff1" l; Printf.sprintf "w%d_ff2" l;
      Printf.sprintf "kv%d" l ]
  in
  let all_names =
    scratch_names @ List.concat (List.init cfg.layers layer_names)
  in
  let params = List.map (fun name -> (name, col)) all_names in
  let sizes =
    [ s * d; s * 3 * d; s * d; s * 4 * d ]
    @ List.concat
        (List.init cfg.layers (fun _ ->
             [ 3 * d * d; d * d; 4 * d * d; 4 * d * d; s * 2 * d ]))
  in
  (* init: random inputs and weights, zero KV cache *)
  B.func b "init" params T.Unit (fun fb args ->
      List.iteri
        (fun idx ptr ->
          let count = List.nth sizes idx in
          let name = List.nth all_names idx in
          let is_kv = String.length name >= 2 && String.sub name 0 2 = "kv" in
          B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst count) (fun i ->
              let p = B.gep fb ~base:ptr ~index:i ~elem:T.F64 () in
              if is_kv then B.store fb T.F64 ~ptr:p ~value:(Ir.Ofloat 0.0)
              else begin
                let r = B.call fb "rand_int" [ B.iconst 1000 ] in
                let f = B.i2f fb r in
                let f = B.fbin fb Ir.Fdiv f (Ir.Ofloat 1000.0) in
                let f = B.fbin fb Ir.Fsub f (Ir.Ofloat 0.5) in
                let f =
                  B.fbin fb Ir.Fdiv f (Ir.Ofloat (sqrt (float_of_int d)))
                in
                B.store fb T.F64 ~ptr:p ~value:f
              end))
        args);
  (* work: the forward pass, layers unrolled at build time *)
  B.func b "work" params T.Unit (fun fb args ->
      let arg name =
        let rec find names vals =
          match (names, vals) with
          | n :: _, v :: _ when String.equal n name -> v
          | _ :: ns, _ :: vs -> find ns vs
          | _, _ -> invalid_arg ("gpt2: no arg " ^ name)
        in
        find all_names args
      in
      let x = arg "x" and qkv = arg "qkv" and attn = arg "attn" and hbuf = arg "hbuf" in
      for l = 0 to cfg.layers - 1 do
        let w name = arg (Printf.sprintf "w%d_%s" l name) in
        let kv = arg (Printf.sprintf "kv%d" l) in
        (* 1. qkv = x @ Wqkv^T *)
        matmul cfg fb ~m:s ~n:(3 * d) ~k:d ~a:x ~bt:(w "qkv")
          ~emit:(fun fb v i j ->
            let idx = B.bin fb Ir.Add (B.bin fb Ir.Mul i (B.iconst (3 * d))) j in
            B.store fb T.F64 ~ptr:(B.gep fb ~base:qkv ~index:idx ~elem:T.F64 ()) ~value:v);
        (* 2. append K and V rows to the layer's KV cache *)
        B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst s) (fun i ->
            B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst d) (fun j ->
                let src_k =
                  B.bin fb Ir.Add (B.bin fb Ir.Mul i (B.iconst (3 * d)))
                    (B.bin fb Ir.Add j (B.iconst d))
                in
                let kvv = B.load fb T.F64 (B.gep fb ~base:qkv ~index:src_k ~elem:T.F64 ()) in
                let dst_k = B.bin fb Ir.Add (B.bin fb Ir.Mul i (B.iconst (2 * d))) j in
                B.store fb T.F64 ~ptr:(B.gep fb ~base:kv ~index:dst_k ~elem:T.F64 ()) ~value:kvv;
                let src_v =
                  B.bin fb Ir.Add (B.bin fb Ir.Mul i (B.iconst (3 * d)))
                    (B.bin fb Ir.Add j (B.iconst (2 * d)))
                in
                let vv = B.load fb T.F64 (B.gep fb ~base:qkv ~index:src_v ~elem:T.F64 ()) in
                let dst_v =
                  B.bin fb Ir.Add (B.bin fb Ir.Mul i (B.iconst (2 * d)))
                    (B.bin fb Ir.Add j (B.iconst d))
                in
                B.store fb T.F64 ~ptr:(B.gep fb ~base:kv ~index:dst_v ~elem:T.F64 ()) ~value:vv));
        (* 3. attention: attn[i,:] = sum_j (q_i . k_j / d) * v_j *)
        let aloop = if cfg.parallel then B.par_for else B.for_ in
        aloop fb ~lo:(B.iconst 0) ~hi:(B.iconst s) (fun i ->
            B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst d) (fun c ->
                let idx = B.bin fb Ir.Add (B.bin fb Ir.Mul i (B.iconst d)) c in
                B.store fb T.F64 ~ptr:(B.gep fb ~base:attn ~index:idx ~elem:T.F64 ())
                  ~value:(Ir.Ofloat 0.0));
            let score, _ =
              B.alloc fb ~name:"attn_score" ~space:Ir.Stack T.F64 (B.iconst 1)
            in
            B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst s) (fun j ->
                B.store fb T.F64 ~ptr:score ~value:(Ir.Ofloat 0.0);
                B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst d) (fun k ->
                    let qi = B.bin fb Ir.Add (B.bin fb Ir.Mul i (B.iconst (3 * d))) k in
                    let qv = B.load fb T.F64 (B.gep fb ~base:qkv ~index:qi ~elem:T.F64 ()) in
                    let ki = B.bin fb Ir.Add (B.bin fb Ir.Mul j (B.iconst (2 * d))) k in
                    let kvv = B.load fb T.F64 (B.gep fb ~base:kv ~index:ki ~elem:T.F64 ()) in
                    let sc = B.load fb T.F64 score in
                    B.store fb T.F64 ~ptr:score
                      ~value:(B.fbin fb Ir.Fadd sc (B.fbin fb Ir.Fmul qv kvv)));
                let sc = B.load fb T.F64 score in
                let sc =
                  B.fbin fb Ir.Fdiv sc (Ir.Ofloat (float_of_int (d * s)))
                in
                B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst d) (fun c ->
                    let vi =
                      B.bin fb Ir.Add (B.bin fb Ir.Mul j (B.iconst (2 * d)))
                        (B.bin fb Ir.Add c (B.iconst d))
                    in
                    let vv = B.load fb T.F64 (B.gep fb ~base:kv ~index:vi ~elem:T.F64 ()) in
                    let ai = B.bin fb Ir.Add (B.bin fb Ir.Mul i (B.iconst d)) c in
                    let ap = B.gep fb ~base:attn ~index:ai ~elem:T.F64 () in
                    let av = B.load fb T.F64 ap in
                    B.store fb T.F64 ~ptr:ap
                      ~value:(B.fbin fb Ir.Fadd av (B.fbin fb Ir.Fmul sc vv)))));
        (* 4. x = tanh(attn @ Wproj^T + x)  (residual) *)
        matmul cfg fb ~m:s ~n:d ~k:d ~a:attn ~bt:(w "proj")
          ~emit:(fun fb v i j ->
            let idx = B.bin fb Ir.Add (B.bin fb Ir.Mul i (B.iconst d)) j in
            let xp = B.gep fb ~base:x ~index:idx ~elem:T.F64 () in
            let xv = B.load fb T.F64 xp in
            let t = B.call fb "tanh" [ B.fbin fb Ir.Fadd v xv ] in
            B.store fb T.F64 ~ptr:xp ~value:t);
        (* 5. hbuf = relu(x @ Wff1^T) *)
        matmul cfg fb ~m:s ~n:(4 * d) ~k:d ~a:x ~bt:(w "ff1")
          ~emit:(fun fb v i j ->
            let idx = B.bin fb Ir.Add (B.bin fb Ir.Mul i (B.iconst (4 * d))) j in
            let pos = B.fcmp fb Ir.Gt v (Ir.Ofloat 0.0) in
            let hp = B.gep fb ~base:hbuf ~index:idx ~elem:T.F64 () in
            B.if_ fb pos
              (fun () -> B.store fb T.F64 ~ptr:hp ~value:v)
              ~else_:(fun () -> B.store fb T.F64 ~ptr:hp ~value:(Ir.Ofloat 0.0))
              ());
        (* 6. x = tanh(hbuf @ Wff2^T + x) *)
        matmul cfg fb ~m:s ~n:d ~k:(4 * d) ~a:hbuf ~bt:(w "ff2")
          ~emit:(fun fb v i j ->
            let idx = B.bin fb Ir.Add (B.bin fb Ir.Mul i (B.iconst d)) j in
            let xp = B.gep fb ~base:x ~index:idx ~elem:T.F64 () in
            let xv = B.load fb T.F64 xp in
            let t = B.call fb "tanh" [ B.fbin fb Ir.Fadd v xv ] in
            B.store fb T.F64 ~ptr:xp ~value:t)
      done);
  B.func b "checksum" [ ("x", col) ] T.I64 (fun fb args ->
      match args with
      | [ x ] ->
        let acc, _ = B.alloc fb ~name:"gpt_acc" ~space:Ir.Stack T.F64 (B.iconst 1) in
        B.store fb T.F64 ~ptr:acc ~value:(Ir.Ofloat 0.0);
        B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst (s * d)) (fun i ->
            let v = B.load fb T.F64 (B.gep fb ~base:x ~index:i ~elem:T.F64 ()) in
            let a = B.load fb T.F64 acc in
            B.store fb T.F64 ~ptr:acc ~value:(B.fbin fb Ir.Fadd a v));
        let a = B.load fb T.F64 acc in
        let scaled = B.fbin fb Ir.Fmul a (Ir.Ofloat 1e6) in
        B.ret fb (B.f2i fb scaled)
      | _ -> assert false);
  B.func b "main" [] T.I64 (fun fb _ ->
      let ptrs =
        List.map2
          (fun name count -> fst (B.alloc fb ~name T.F64 (B.iconst count)))
          all_names sizes
      in
      ignore (B.call fb "init" ptrs);
      ignore (B.call fb "work" ptrs);
      let sum = B.call fb "checksum" [ List.hd ptrs ] in
      B.ret fb sum);
  B.finish b ~entry:"main"
