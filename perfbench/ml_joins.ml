(* ml_joins: the Fig. 6 programs (ML over joins) at about the quick scale
   of bench/main.ml: linreg, logreg and nn over the TPC-H star join,
   covariance over a smaller star join, linreg and logreg over the self
   join.

   The check recomputes the feature matrix X densely from the generated
   join tensors and evaluates each model directly. *)

module T = Galley_tensor.Tensor
module W = Galley_workloads

let star_scale =
  { W.Tpch.n_lineitems = 800; n_suppliers = 40; n_parts = 100; n_orders = 200;
    n_customers = 60 }

let cov_scale =
  { W.Tpch.n_lineitems = 400; n_suppliers = 30; n_parts = 60; n_orders = 100;
    n_customers = 40 }

let self_join_scale =
  { W.Tpch.n_lineitems = 300; n_suppliers = 20; n_parts = 60; n_orders = 1;
    n_customers = 1 }

let hidden = 16

(* Dense row-major copy of a 1- or 2-dimensional tensor. *)
let dense (t : T.t) : float array array =
  match T.dims t with
  | [| n |] -> [| Array.init n (fun i -> T.get t [| i |]) |]
  | [| m; n |] ->
      let a = Array.make_matrix m n (T.fill t) in
      T.iter_nonfill t (fun c v -> a.(c.(0)).(c.(1)) <- v);
      a
  | _ -> invalid_arg "dense"

let sigmoid x = 1.0 /. (1.0 +. exp (-.x))
let dot (a : float array) (b : float array) = Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) a b)

(* One model applied to a row x of X. *)
let model (alg : W.Ml.algorithm) (inputs : (string * T.t) list) : float array -> float =
  let vec name = (dense (List.assoc name inputs)).(0) in
  match alg with
  | W.Ml.Linreg ->
      let theta = vec "theta" in
      fun x -> dot x theta
  | W.Ml.Logreg ->
      let theta = vec "theta" in
      fun x -> sigmoid (dot x theta)
  | W.Ml.Nn ->
      let w1 = dense (List.assoc "W1" inputs) and w2 = vec "w2" in
      fun x ->
        let h =
          Array.init hidden (fun k ->
              let acc = ref 0.0 in
              Array.iteri (fun j xj -> acc := !acc +. (xj *. w1.(j).(k))) x;
              Float.max 0.0 !acc)
        in
        sigmoid (dot h w2)
  | W.Ml.Covariance -> invalid_arg "model: covariance is not row-wise"

let compare_all (label : string) (got : T.t) (points : int array list) (want : int array -> float) :
    (unit, string) result =
  match
    List.find_opt (fun c -> not (Util.close ~want:(want c) (T.get got c))) points
  with
  | None -> Ok ()
  | Some c ->
      Error
        (Printf.sprintf "%s[%s] = %.17g, expected %.17g" label
           (String.concat "," (Array.to_list (Array.map string_of_int c)))
           (T.get got c) (want c))

(* X[i,j] = Σ L[i,s,p,o,c] · (S[s,j] + P[p,j] + O[o,j] + C[c,j]). *)
let star_x (inputs : (string * T.t) list) ~(n : int) ~(d : int) : float array array =
  let x = Array.make_matrix n d 0.0 in
  let tables = List.map (fun t -> dense (List.assoc t inputs)) [ "S"; "P"; "O"; "C" ] in
  T.iter_nonfill (List.assoc "L" inputs) (fun c v ->
      let i = c.(0) in
      List.iteri
        (fun k table ->
          let row = table.(c.(k + 1)) in
          for j = 0 to d - 1 do
            x.(i).(j) <- x.(i).(j) +. (v *. row.(j))
          done)
        tables);
  x

let check_output out (expected : (int array list * (int array -> float)) Lazy.t) outs =
  Result.bind (Batch.find_output outs out) (fun got ->
      let points, want = Lazy.force expected in
      compare_all out got points want)

(* The star-join ops of [algs], sharing one generated instance. *)
let star_ops ~seed ~(scale : W.Tpch.scale) ~tag (algs : W.Ml.algorithm list) : Batch.op list =
  let star = W.Tpch.star_instance ~scale ~seed:((seed * 1000) + tag) () in
  let params =
    W.Ml.parameter_inputs ~seed:((seed * 1000) + tag + 1) ~d:star.W.Tpch.d ~hidden
  in
  let inputs = star.W.Tpch.inputs @ params in
  let n = star.W.Tpch.n and d = star.W.Tpch.d in
  let x = lazy (star_x inputs ~n ~d) in
  List.map
    (fun alg ->
      let program = W.Ml.program_of alg ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
      let out = List.hd program.Galley_plan.Ir.outputs in
      let expected =
        lazy
          (let x = Lazy.force x in
           match alg with
           | W.Ml.Covariance ->
               let cov = Array.make_matrix d d 0.0 in
               Array.iter
                 (fun row ->
                   for j = 0 to d - 1 do
                     for k = 0 to d - 1 do
                       cov.(j).(k) <- cov.(j).(k) +. (row.(j) *. row.(k))
                     done
                   done)
                 x;
               ( List.concat (List.init d (fun j -> List.init d (fun k -> [| j; k |]))),
                 fun c -> cov.(c.(0)).(c.(1)) )
           | _ ->
               let y = Array.map (model alg inputs) x in
               (List.init n (fun i -> [| i |]), fun c -> y.(c.(0))))
      in
      {
        Batch.label = "star/" ^ W.Ml.algorithm_name alg;
        inputs;
        program;
        check = check_output out expected;
      })
    algs

(* X[i1,i2,j] = Σ L3[i1,s1,p] · L3[i2,s2,p] · (S[s1,j] + S[s2,j] + P[p,j]),
   rebuilt one row (i1,i2) at a time; rows of lineitems that share no
   part are zero. *)
let self_join_ops ~seed ~(scale : W.Tpch.scale) (algs : W.Ml.algorithm list) : Batch.op list =
  let sj = W.Tpch.self_join_instance ~scale ~seed:((seed * 1000) + 50) () in
  let params = W.Ml.parameter_inputs ~seed:((seed * 1000) + 51) ~d:sj.W.Tpch.sj_d ~hidden in
  let inputs = sj.W.Tpch.sj_inputs @ params in
  let n = sj.W.Tpch.sj_n and d = sj.W.Tpch.sj_d in
  List.map
    (fun alg ->
      let program = W.Ml.program_of alg ~x:sj.W.Tpch.sj_x_def ~pts:[ "i1"; "i2" ] in
      let out = List.hd program.Galley_plan.Ir.outputs in
      let expected =
        lazy
          (let s = dense (List.assoc "S" inputs) and p = dense (List.assoc "P" inputs) in
           (* entries of L3 by lineitem: (supplier, part, value) *)
           let by_row = Array.make n [] in
           T.iter_nonfill (List.assoc "L3" inputs) (fun c v ->
               by_row.(c.(0)) <- (c.(1), c.(2), v) :: by_row.(c.(0)));
           let f = model alg inputs in
           let y = Array.make_matrix n n (f (Array.make d 0.0)) in
           for i1 = 0 to n - 1 do
             for i2 = 0 to n - 1 do
               let row = Array.make d 0.0 and joined = ref false in
               List.iter
                 (fun (s1, p1, v1) ->
                   List.iter
                     (fun (s2, p2, v2) ->
                       if p1 = p2 then begin
                         joined := true;
                         for j = 0 to d - 1 do
                           row.(j) <- row.(j) +. (v1 *. v2 *. (s.(s1).(j) +. s.(s2).(j) +. p.(p1).(j)))
                         done
                       end)
                     by_row.(i2))
                 by_row.(i1);
               if !joined then y.(i1).(i2) <- f row
             done
           done;
           ( List.concat (List.init n (fun i1 -> List.init n (fun i2 -> [| i1; i2 |]))),
             fun c -> y.(c.(0)).(c.(1)) ))
      in
      {
        Batch.label = "self_join/" ^ W.Ml.algorithm_name alg;
        inputs;
        program;
        check = check_output out expected;
      })
    algs

let make ~seed : Batch.op array =
  Array.of_list
    (star_ops ~seed ~scale:star_scale ~tag:1 [ W.Ml.Linreg; W.Ml.Logreg; W.Ml.Nn ]
    @ star_ops ~seed ~scale:cov_scale ~tag:10 [ W.Ml.Covariance ]
    @ self_join_ops ~seed ~scale:self_join_scale [ W.Ml.Linreg; W.Ml.Logreg ])

(* A run completes about forty programs: too few for any tail, so
   op_ms.tail repeats op_ms.p50.  One domain: the parallel layer does
   little here, and at two domains peak memory grew six- to eightfold
   (the FOUND line in CHANGES.md). *)
let workload = { Batch.name = "ml_joins"; make; tail = None; domains = 1 }
