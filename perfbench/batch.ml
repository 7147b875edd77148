(* Batch workloads: programs run one after another through [Driver.run],
   in whole rounds of the same operations.

   The untraced run measures the end-to-end metrics.  The traced run
   replays every program layer by layer, in the order [Driver.run] calls
   the layers, with a span around each call; it then runs [Driver.run]
   on the same inputs, checks that both produced bit-identical outputs,
   and charges the difference in wall time to [core.unattributed]. *)

module D = Galley.Driver
module T = Galley_tensor.Tensor
module Ir = Galley_plan.Ir
module Ctx = Galley_stats.Ctx
module Schema = Galley_plan.Schema
module LQ = Galley_plan.Logical_query
module Exec = Galley_engine.Exec
module M = Galley_obs.Metrics

type output = string * Ir.idx list * T.t

type op = {
  label : string;
  inputs : (string * T.t) list;
  program : Ir.program;
  check : output list -> (unit, string) result;
      (* compares outputs with a computation made apart from Galley *)
}

type workload = {
  name : string;
  make : seed:int -> op array; (* generates the inputs *)
  tail : float option;
      (* the percentile op_ms.tail reports: the highest with at least ten
         ops beyond it in a run of the benchmark's length; None when a run
         has too few ops for any tail, and op_ms.tail repeats op_ms.p50 *)
  domains : int;
      (* pinned, not read from GALLEY_DOMAINS, so that every run measures
         the same configuration *)
}

let config ~domains = { D.default_config with D.domains }

(* Generate the inputs and warm up with one untimed run of the first op. *)
let setup (w : workload) ~seed : op array * float =
  let config = config ~domains:w.domains in
  let runs =
    List.init Util.setups (fun _ ->
        let t0 = Util.now () in
        let ops = w.make ~seed in
        ignore (D.run ~config ~inputs:ops.(0).inputs ops.(0).program);
        (ops, Util.now () -. t0))
  in
  (fst (List.nth runs (Util.setups - 1)), Util.median (List.map snd runs))

let find_output (outs : output list) (name : string) : (T.t, string) result =
  match List.find_opt (fun (n, _, _) -> n = name) outs with
  | Some (_, _, t) -> Ok t
  | None -> Error ("missing output " ^ name)

(* Run whole rounds of [ops] until [seconds] have passed; [f] runs one
   op and returns what the check needs, and is timed.  No collection is
   forced: the collector runs as it would in any long-lived process, so
   its work lands in the phase's wall time.  Returns the timed ops,
   round by round, and that wall time. *)
let rounds ~(seconds : float) (ops : op array) (f : op -> 'a) :
    (op * float * 'a) list list * float =
  let t_start = Util.now () in
  let acc = ref [] in
  while Util.now () -. t_start < seconds do
    acc :=
      Array.to_list
        (Array.map
           (fun op ->
             let t0 = Util.now () in
             let v = f op in
             (op, Util.now () -. t0, v))
           ops)
      :: !acc
  done;
  (List.rev !acc, Util.now () -. t_start)

(* How many ops produced an output the check rejects, or raised. *)
let count_failed (results : (op * (output list, string) result) list) : int =
  List.fold_left
    (fun acc ((op : op), outs) ->
      match Result.bind outs op.check with
      | Ok () -> acc
      | Error msg ->
          Util.log "%s: %s" op.label msg;
          acc + 1)
    0 results

(* -- untraced run: the end-to-end metrics ------------------------------ *)

let run_untraced (w : workload) ~seed ~seconds : unit =
  let ops, setup_s = setup w ~seed in
  let config = config ~domains:w.domains in
  let by_round, wall =
    rounds ~seconds ops (fun op ->
        match D.run ~config ~inputs:op.inputs op.program with
        | r -> Ok r.D.outputs
        | exception e -> Error ("raised " ^ Printexc.to_string e))
  in
  let rss = Util.peak_rss_mb (Unix.getpid ()) in
  let results = List.concat by_round in
  let failed = count_failed (List.map (fun (op, _, outs) -> (op, outs)) results) in
  let n = List.length results in
  (* The median of each round, then the median of those: a round holds
     programs of fixed and very different sizes, so the median of all ops
     would be set by the run's one slowest and one fastest round. *)
  let p50 =
    Util.median (List.map (fun r -> Util.median (List.map (fun (_, dt, _) -> dt) r)) by_round)
  in
  let tail =
    match w.tail with
    | None ->
        Util.log "%s: %d ops in %.2fs at %d domains; op_ms.tail repeats op_ms.p50" w.name n
          wall w.domains;
        p50
    | Some p ->
        Util.log "%s: %d ops in %.2fs at %d domains; op_ms.tail is p%g, %d samples beyond it"
          w.name n wall w.domains (p *. 100.0) (Util.beyond n p);
        let times = Array.of_list (List.map (fun (_, dt, _) -> dt) results) in
        Array.sort compare times;
        Util.percentile times p
  in
  Util.print_result ~correct:(failed = 0) ~attempted:n ~failed
    [
      ("setup_s", setup_s, "s");
      ("ops_per_s", float_of_int n /. wall, "ops/s");
      ("op_ms.p50", 1000.0 *. p50, "ms");
      ("op_ms.tail", 1000.0 *. tail, "ms");
      ("peak_rss_mb", rss, "MB");
    ]

(* -- traced run: the layer-by-layer replica ---------------------------- *)

let counter name = M.value (M.counter name)
let estimator_calls () = counter "estimator.calls.chain" + counter "estimator.calls.uniform"

(* Per-op layer sample: every time in seconds. *)
type sample = {
  s_input : float;
  s_refresh : float;
  s_logical : float;
  s_physical : float;
  s_validate : float;
  s_compile : float;
  s_engine : float; (* wall of Exec.run_plan, compile included *)
  s_replica : float; (* wall of the whole replica *)
  s_driver : float; (* wall of Driver.run on the same inputs *)
  s_alloc : float; (* bytes allocated by Driver.run *)
  counts : (string * int) list;
}

let fail_on_issue = function
  | Ok () -> ()
  | Error { Galley.Validate.v_message; _ } -> failwith v_message

(* [Driver.run], call by call.  The logical search gets an unbounded
   node budget (the same plans as no budget) so that it counts the nodes
   it expands.  Returns the outputs, the layer counts and the time in
   seconds spent in each layer, compile included. *)
let replica ~cfg (op : op) : output list * (string * int) list * (string * float) list =
  let program = D.resolve_names op.program in
  let cnt = Hashtbl.create 16 and times = Hashtbl.create 8 in
  let bump k n = Hashtbl.replace cnt k (n + try Hashtbl.find cnt k with Not_found -> 0) in
  let span layer f =
    let v, dt = Spans.with_span layer f in
    Hashtbl.replace times layer (dt +. try Hashtbl.find times layer with Not_found -> 0.0);
    v
  in
  let est0 = estimator_calls () in
  let ctx =
    span "stats.input" (fun () ->
        let schema = Schema.create () in
        List.iter (fun (n, t) -> Schema.declare_tensor schema n t) op.inputs;
        let ctx = Ctx.create ~kind:cfg.D.estimator schema in
        List.iter (fun (n, t) -> ctx.Ctx.register_input n t) op.inputs;
        ctx)
  in
  List.iter (fun (_, t) -> bump "input_entries" (T.nnz t)) op.inputs;
  let nodes0 = counter "optimizer.search_nodes" in
  let logical_plan, _ =
    span "logical" (fun () ->
        Galley_logical.Optimizer.optimize_program_tiered ~degrade:cfg.D.degrade
          { cfg.D.logical with Galley_logical.Optimizer.max_nodes = Some max_int }
          ctx program)
  in
  bump "search_nodes" (counter "optimizer.search_nodes" - nodes0);
  bump "queries" (List.length logical_plan);
  span "core.validate" (fun () ->
      fail_on_issue
        (Galley.Validate.logical_plan
           ~known:(fun n -> List.mem_assoc n op.inputs)
           ~outputs:program.Ir.outputs logical_plan));
  let exec =
    Exec.create ~cse:cfg.D.cse ~backend:cfg.D.kernel_backend ~domains:cfg.D.domains
      ~kernel_cache_cap:cfg.D.kernel_cache_cap ~cse_cache_cap:cfg.D.cse_cache_cap ()
  in
  Fun.protect
    ~finally:(fun () -> Exec.shutdown exec)
    (fun () ->
      List.iter (fun (n, t) -> Exec.bind exec n t) op.inputs;
      let fresh_n = ref 0 in
      let fresh () =
        incr fresh_n;
        Printf.sprintf "#p%d" !fresh_n
      in
      let refreshed = Hashtbl.create 16 and planned = Hashtbl.create 16 in
      let known n = Exec.lookup_opt exec n <> None || Hashtbl.mem planned n in
      List.iter
        (fun (q : LQ.t) ->
          span "stats.refresh" (fun () ->
              List.iter
                (fun (name, kind) ->
                  match (kind, Exec.lookup_opt exec name) with
                  | `Alias, Some t when not (Hashtbl.mem refreshed name) ->
                      Hashtbl.replace refreshed name ();
                      Schema.declare_tensor ctx.Ctx.schema name t;
                      ctx.Ctx.register_alias_tensor name t;
                      bump "refreshes" 1
                  | _ -> ())
                (Ir.referenced_names q.LQ.body));
          let plan, _ =
            span "physical" (fun () ->
                Galley_physical.Optimizer.plan_query_tiered ~degrade:cfg.D.degrade
                  ~config:cfg.D.physical ctx ~fresh q)
          in
          span "core.validate" (fun () ->
              fail_on_issue (Galley.Validate.physical_plan ~known plan));
          Hashtbl.replace planned q.LQ.name ();
          bump "steps" (List.length plan);
          let before =
            List.map (fun k -> (k, counter k))
              [ "kernel_cache.hits"; "kernel_cache.misses"; "cse.hits"; "cse.misses";
                "kernel.morsels"; "kernel.steals" ]
          in
          span "engine" (fun () -> Exec.run_plan exec plan);
          List.iter (fun (k, v) -> bump k (counter k - v)) before)
        logical_plan;
      let tm = exec.Exec.timings in
      bump "compiles" tm.Exec.compile_count;
      bump "kernels" tm.Exec.kernel_count;
      List.iter
        (fun (q : LQ.t) ->
          match Exec.lookup_opt exec q.LQ.name with
          | Some t -> bump "output_entries" (T.nnz t)
          | None -> ())
        logical_plan;
      bump "estimator_calls" (estimator_calls () - est0);
      let outputs =
        List.filter_map
          (fun name ->
            match
              ( List.find_opt (fun (q : LQ.t) -> q.LQ.name = name) logical_plan,
                Exec.lookup_opt exec name )
            with
            | Some q, Some t -> Some (name, q.LQ.output_idxs, t)
            | _ -> None)
          program.Ir.outputs
      in
      Hashtbl.replace times "compile" tm.Exec.compile_time;
      let to_list tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
      (outputs, to_list cnt, to_list times))

let bits_equal (a : output list) (b : output list) : bool =
  let same_tensor x y =
    T.dims x = T.dims y
    && Int64.bits_of_float (T.fill x) = Int64.bits_of_float (T.fill y)
    &&
    let cx = T.to_coo x and cy = T.to_coo y in
    Array.length cx = Array.length cy
    && Array.for_all2
         (fun (i, v) (j, w) -> i = j && Int64.bits_of_float v = Int64.bits_of_float w)
         cx cy
  in
  List.length a = List.length b
  && List.for_all2
       (fun (n, i, x) (m, j, y) -> n = m && i = j && same_tensor x y)
       a b

let run_traced (w : workload) ~seed ~seconds ~trace_path : unit =
  let ops, _ = setup w ~seed in
  let config = config ~domains:w.domains in
  let by_round, _ =
    rounds ~seconds ops (fun op ->
        (* the replica and Driver.run each start from a collected heap,
           so that neither pays for the other's garbage *)
        Gc.full_major ();
        let (outs, counts, times), replica_s =
          Spans.with_span ~args:[ ("op", op.label) ] "replica" (fun () -> replica ~cfg:config op)
        in
        let time layer = try List.assoc layer times with Not_found -> 0.0 in
        Gc.full_major ();
        let a0 = Util.allocated_bytes () in
        let driver_outs, driver_s =
          Spans.with_span ~args:[ ("op", op.label) ] "driver.run" (fun () ->
              (D.run ~config ~inputs:op.inputs op.program).D.outputs)
        in
        let alloc = Util.allocated_bytes () -. a0 in
        let sample =
          {
            s_input = time "stats.input";
            s_refresh = time "stats.refresh";
            s_logical = time "logical";
            s_physical = time "physical";
            s_validate = time "core.validate";
            s_compile = time "compile";
            s_engine = time "engine";
            s_replica = replica_s;
            s_driver = driver_s;
            s_alloc = alloc;
            counts;
          }
        in
        (outs, driver_outs, sample))
  in
  let results = List.concat by_round in
  let failed =
    count_failed
      (List.map
         (fun (op, _, (outs, driver_outs, _)) ->
           ( op,
             if bits_equal outs driver_outs then Ok driver_outs
             else Error "replica outputs differ from Driver.run" ))
         results)
  in
  let n_spans = Spans.write_chrome trace_path in
  Util.log "%s: %d spans written to %s" w.name n_spans trace_path;
  let samples = List.map (fun (_, _, (_, _, s)) -> s) results in
  let n = List.length samples in
  let mean f = List.fold_left (fun a s -> a +. f s) 0.0 samples /. float_of_int n in
  let ms f = 1000.0 *. mean f in
  let count k = mean (fun s -> float_of_int (try List.assoc k s.counts with Not_found -> 0)) in
  let driver_ms = ms (fun s -> s.s_driver) in
  let replica_ms = ms (fun s -> s.s_replica) in
  let layers_ms =
    ms (fun s ->
        s.s_input +. s.s_refresh +. s.s_logical +. s.s_physical +. s.s_validate +. s.s_engine)
  in
  let kc_hits = count "kernel_cache.hits" in
  let kc_lookups = kc_hits +. count "kernel_cache.misses" in
  let cse_hits = count "cse.hits" in
  let cse_lookups = cse_hits +. count "cse.misses" in
  Layers.print ~correct:(failed = 0) ~attempted:n ~failed
    [
      ("stats.input_ms_per_op", ms (fun s -> s.s_input));
      ("stats.refresh_ms_per_op", ms (fun s -> s.s_refresh));
      ("stats.input_entries_per_op", count "input_entries");
      ("stats.refreshes_per_op", count "refreshes");
      ("stats.estimator_calls_per_op", count "estimator_calls");
      ("logical.ms_per_op", ms (fun s -> s.s_logical));
      ("logical.search_nodes_per_op", count "search_nodes");
      ("logical.queries_per_op", count "queries");
      ("physical.ms_per_op", ms (fun s -> s.s_physical));
      ("physical.steps_per_op", count "steps");
      ("core.validate_ms_per_op", ms (fun s -> s.s_validate));
      ("core.unattributed_ms_per_op", driver_ms -. layers_ms);
      ("core.alloc_mb_per_op", mean (fun s -> s.s_alloc) /. 1048576.0);
      ("compile.ms_per_op", ms (fun s -> s.s_compile));
      ("compile.kernels_per_op", count "compiles");
      ("engine.execute_ms_per_op", ms (fun s -> s.s_engine -. s.s_compile));
      ("engine.kernels_per_op", count "kernels");
      ("engine.output_entries_per_op", count "output_entries");
      ("engine.kernel_cache_hit_ratio", Util.ratio kc_hits kc_lookups);
      ("engine.kernel_cache_hits_per_op", kc_hits);
      ("engine.kernel_cache_lookups_per_op", kc_lookups);
      ("engine.cse_hit_ratio", Util.ratio cse_hits cse_lookups);
      ("engine.cse_hits_per_op", cse_hits);
      ("engine.cse_lookups_per_op", cse_lookups);
      ("parallel.morsels_per_op", count "kernel.morsels");
      ("parallel.steals_per_op", count "kernel.steals");
      ("trace.overhead_pct", 100.0 *. Util.ratio (replica_ms -. driver_ms) driver_ms);
      ("trace.traced_ms_per_op", replica_ms);
      ("trace.untraced_ms_per_op", driver_ms);
    ]
