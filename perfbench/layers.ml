(* The per-layer metrics, in one fixed order.  Every traced run prints
   all of them; a layer that a workload does not reach reads 0 there. *)

let all : (string * string) list =
  [
    ("stats.input_ms_per_op", "ms");
    ("stats.refresh_ms_per_op", "ms");
    ("stats.input_entries_per_op", "count");
    ("stats.refreshes_per_op", "count");
    ("stats.estimator_calls_per_op", "count");
    ("logical.ms_per_op", "ms");
    ("logical.search_nodes_per_op", "count");
    ("logical.queries_per_op", "count");
    ("physical.ms_per_op", "ms");
    ("physical.steps_per_op", "count");
    ("core.validate_ms_per_op", "ms");
    ("core.unattributed_ms_per_op", "ms");
    ("core.alloc_mb_per_op", "MB");
    ("compile.ms_per_op", "ms");
    ("compile.kernels_per_op", "count");
    ("engine.execute_ms_per_op", "ms");
    ("engine.kernels_per_op", "count");
    ("engine.output_entries_per_op", "count");
    ("engine.kernel_cache_hit_ratio", "ratio");
    ("engine.kernel_cache_hits_per_op", "count");
    ("engine.kernel_cache_lookups_per_op", "count");
    ("engine.cse_hit_ratio", "ratio");
    ("engine.cse_hits_per_op", "count");
    ("engine.cse_lookups_per_op", "count");
    ("parallel.morsels_per_op", "count");
    ("parallel.steals_per_op", "count");
    ("fixpoint.iterations_per_request", "count");
    ("fixpoint.replans_per_request", "count");
    ("fixpoint.ms_per_iteration", "ms");
    ("serve.queue_ms.p50", "ms");
    ("serve.server_ms.p50", "ms");
    ("serve.wire_ms.p50", "ms");
    ("serve.repeat_ms.p50", "ms");
    ("serve.fresh_ms.p50", "ms");
    ("serve.bind_ms.p50", "ms");
    ("serve.iterate_ms.p50", "ms");
    ("serve.response_kb_per_request", "KB");
    ("serve.cse_hit_ratio", "ratio");
    ("serve.cse_hits_per_request", "count");
    ("serve.cse_lookups_per_request", "count");
    ("serve.kernel_cache_hit_ratio", "ratio");
    ("serve.kernel_cache_hits_per_request", "count");
    ("serve.kernel_cache_lookups_per_request", "count");
    ("trace.overhead_pct", "%");
    ("trace.traced_ms_per_op", "ms");
    ("trace.untraced_ms_per_op", "ms");
  ]

let print ~correct ~attempted ~failed (values : (string * float) list) : unit =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name all) then invalid_arg ("Layers.print: unknown metric " ^ name))
    values;
  Util.print_result ~correct ~attempted ~failed
    (List.map
       (fun (name, unit) ->
         (name, (try List.assoc name values with Not_found -> 0.0), unit))
       all)
