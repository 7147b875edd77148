(* The benchmark's own tests: every check accepts Galley's real output
   and counts a wrong output as failed.  Run by `dune runtest`; small
   inputs only. *)

open Perfbench
module D = Galley.Driver
module T = Galley_tensor.Tensor
module W = Galley_workloads

let expect what cond = if not cond then failwith ("selftest: " ^ what)

(* The same outputs with one stored value changed. *)
let corrupt (outs : Batch.output list) : Batch.output list =
  List.map
    (fun (name, idxs, t) ->
      let coo = T.to_coo t in
      if Array.length coo = 0 then (name, idxs, T.of_coo ~dims:(T.dims t) ~formats:(T.formats t) [||])
      else begin
        let c, v = coo.(0) in
        coo.(0) <- (c, (v *. 1.5) +. 1.0);
        if T.ndims t = 0 then (name, idxs, T.scalar ((v *. 1.5) +. 1.0))
        else (name, idxs, T.of_coo ~fill:(T.fill t) ~dims:(T.dims t) ~formats:(T.formats t) coo)
      end)
    outs

(* A batch op passes with Galley's output and fails with a corrupted one. *)
let check_batch_op (op : Batch.op) =
  let outs = (D.run ~config:(Batch.config ~domains:1) ~inputs:op.inputs op.program).D.outputs in
  expect (op.label ^ " accepts Galley's output") (Batch.count_failed [ (op, Ok outs) ] = 0);
  expect (op.label ^ " counts a wrong output as failed")
    (Batch.count_failed [ (op, Ok (corrupt outs)) ] = 1);
  expect (op.label ^ " counts a missing output as failed") (Batch.count_failed [ (op, Ok []) ] = 1)

let tiny_star = { W.Tpch.tiny_scale with W.Tpch.n_lineitems = 40 }

let tiny_self_join =
  { W.Tpch.n_lineitems = 24; n_suppliers = 4; n_parts = 5; n_orders = 1; n_customers = 1 }

let test_ml_joins () =
  List.iter check_batch_op
    (Ml_joins.star_ops ~seed:3 ~scale:tiny_star ~tag:1
       [ W.Ml.Linreg; W.Ml.Logreg; W.Ml.Nn; W.Ml.Covariance ]
    @ Ml_joins.self_join_ops ~seed:3 ~scale:tiny_self_join [ W.Ml.Linreg; W.Ml.Logreg ])

(* The homomorphism count agrees with brute-force enumeration, and the
   op's check rejects a wrong count. *)
let test_subgraph_count () =
  let g = W.Graphs.symmetrize (W.Graphs.power_law ~seed:5 ~n:24 ~m:60 ~n_labels:3 ()) in
  let patterns = W.Subgraph.[ path 3; star 3; triangle; tailed_triangle; diamond; cycle 4 ] in
  List.iter
    (fun (p : W.Subgraph.pattern) ->
      let labelled = { p with W.Subgraph.plabels = [ (0, 1) ] } in
      List.iter
        (fun (p : W.Subgraph.pattern) ->
          expect (p.W.Subgraph.pname ^ " count")
            (Subgraph_count.count_homomorphisms g p = W.Subgraph.count_by_enumeration g p))
        [ p; labelled ])
    patterns;
  let ops = Subgraph_count.make ~seed:2 in
  check_batch_op (Array.get ops 0)

(* serve_mix responses: a right answer passes, a wrong value, a wrong
   size and an error response fail. *)
let test_serve_mix () =
  let g = Serve_mix.make_graph ~seed:4 in
  let reqs = Serve_mix.round_requests g ~seed:4 ~round:1 in
  let entries v =
    String.concat "," (List.mapi (fun i x -> Printf.sprintf "[%d,%.17g]" i x) (Array.to_list v))
  in
  let vector_response v =
    Printf.sprintf
      "{\"ok\":true,\"outputs\":[{\"name\":\"y\",\"idxs\":[\"i\"],\"dims\":[%d],\"nnz\":%d,\"entries\":[%s],\"truncated\":false}]}"
      (Array.length v) (Array.length v) (entries v)
  in
  let scalar_response x =
    Printf.sprintf
      "{\"ok\":true,\"outputs\":[{\"name\":\"h\",\"idxs\":[],\"dims\":[],\"nnz\":1,\"entries\":[[%.17g]],\"truncated\":false}]}"
      x
  in
  let error_response = "{\"ok\":false,\"error\":{\"kind\":\"internal\",\"message\":\"x\"}}" in
  let bumped v = Array.mapi (fun i x -> if i = 7 then x +. 0.5 else x) v in
  let fails r resp = Result.is_error (Serve_mix.check g r resp) in
  List.iter
    (fun (r : Serve_mix.request) ->
      let right, wrong =
        match r.Serve_mix.expect with
        | Serve_mix.Bound n ->
            (Printf.sprintf "{\"ok\":true,\"nnz\":%d}" n, Printf.sprintf "{\"ok\":true,\"nnz\":%d}" (n - 1))
        | Serve_mix.Nnz n ->
            ( Printf.sprintf "{\"ok\":true,\"outputs\":[{\"nnz\":%d}]}" n,
              Printf.sprintf "{\"ok\":true,\"outputs\":[{\"nnz\":%d}]}" (n + 1) )
        | Serve_mix.Vector want -> (vector_response (want ()), vector_response (bumped (want ())))
        | Serve_mix.Scalar want -> (scalar_response (want ()), scalar_response (want () *. 1.01))
        | Serve_mix.Pagerank r0 ->
            let v = Serve_mix.pagerank g r0 ~iters:5 in
            let with_iters n resp =
              String.sub resp 0 (String.length resp - 1)
              ^ Printf.sprintf ",\"fixpoints\":[{\"name\":\"R0\",\"iterations\":%d}]}" n
            in
            (with_iters 5 (vector_response v), with_iters 6 (vector_response v))
      in
      expect (r.Serve_mix.id ^ " accepts a right response") (not (fails r right));
      expect (r.Serve_mix.id ^ " rejects a wrong response") (fails r wrong);
      expect (r.Serve_mix.id ^ " rejects an error response") (fails r error_response))
    reqs

let () =
  test_ml_joins ();
  test_subgraph_count ();
  test_serve_mix ();
  print_endline "perfbench selftest: ok"
