(* serve_mix: a resident `galley serve` daemon, spawned from the galley
   CLI, fed by a closed loop of one connection from this process.  The
   connection waits for every reply before it sends its next request, as
   callers of `galley client` do.

   The loop repeats one round of requests over a resident power-law
   graph E, a vector x and a PageRank start vector R: a rebind of x,
   repeated matvec and two-hop queries (the first after the rebind
   misses the CSE cache, the rest replay from it), two fresh-shape
   queries whose literal is new to the daemon (they pay optimization and
   kernel compilation), and a PageRank [iterate] from a freshly bound
   start vector.  Some responses return values, some only their size.
   The share of each request kind is an assumption, not measured
   traffic; README.md says which end-to-end metric each share drives.

   Every response is checked after the timed phase: matvec, two-hop and
   PageRank results are recomputed here from the entries this process
   bound, PageRank for the iteration count the response reports. *)

module C = Galley_serve.Client
module P = Galley_serve.Protocol
module J = Galley_obs.Json
module G = Galley_workloads.Graphs
module Prng = Galley_tensor.Prng

let n_vertices = 1000
let n_edges = 4000
let flight_cap = 65536
(* The daemon runs at one domain: its requests are small, and the
   parallel layer is measured by subgraph_count. *)
let domains = 1
let pagerank_iters = 8

type kind = Repeat | Fresh | Bind | Iterate

let kind_name = function
  | Repeat -> "repeat"
  | Fresh -> "fresh"
  | Bind -> "bind"
  | Iterate -> "iterate"

(* What the check recomputes for a response. *)
type expect =
  | Bound of int (* nnz of the bound tensor *)
  | Vector of (unit -> float array) (* every entry of a vector *)
  | Nnz of int (* only the size: the request asked for no values *)
  | Scalar of (unit -> float)
  | Pagerank of float array (* start vector; iterations from the response *)

type request = { id : string; kind : kind; line : string; expect : expect }

(* -- the resident graph and the reference computations ----------------- *)

type graph = {
  edges : (int * int) array;
  outdeg : int array;
}

let make_graph ~seed : graph =
  let g =
    G.symmetrize (G.power_law ~name:"serve" ~seed:((seed * 100) + 7) ~n:n_vertices ~m:n_edges ~alpha:0.7 ())
  in
  let outdeg = Array.make n_vertices 0 in
  Array.iter (fun (u, _) -> outdeg.(u) <- outdeg.(u) + 1) g.G.edges;
  { edges = g.G.edges; outdeg }

(* y = E x *)
let matvec (g : graph) (x : float array) : float array =
  let y = Array.make n_vertices 0.0 in
  Array.iter (fun (i, j) -> y.(i) <- y.(i) +. x.(j)) g.edges;
  y

let sum = Array.fold_left ( +. ) 0.0

(* Σ_{i,j,k} E[i,j] E[j,k] x[k] *)
let two_hop (g : graph) (x : float array) : float = sum (matvec g (matvec g x))

let teleport = 0.15 /. float_of_int n_vertices

(* R ← B + 0.85 Mᵀ R, with M[i,j] = 1/outdeg(i) on every edge i→j. *)
let pagerank (g : graph) (r0 : float array) ~(iters : int) : float array =
  let r = ref r0 in
  for _ = 1 to iters do
    let acc = Array.make n_vertices 0.0 in
    Array.iter
      (fun (i, j) -> acc.(j) <- acc.(j) +. (!r.(i) /. float_of_int g.outdeg.(i)))
      g.edges;
    r := Array.map (fun a -> teleport +. (0.85 *. a)) acc
  done;
  !r

let vector_entries (v : float array) = Array.mapi (fun i x -> ([| i |], x)) v

let bind_line ~id ~name (v : float array) =
  P.encode_bind_entries ~id ~name ~dims:[| n_vertices |] (vector_entries v)

let graph_binds (g : graph) : string list =
  [
    P.encode_bind_entries ~name:"E" ~dims:[| n_vertices; n_vertices |]
      (Array.map (fun (i, j) -> ([| i; j |], 1.0)) g.edges);
    P.encode_bind_entries ~name:"M" ~dims:[| n_vertices; n_vertices |]
      (Array.map (fun (i, j) -> ([| i; j |], 1.0 /. float_of_int g.outdeg.(i))) g.edges);
    bind_line ~id:"B" ~name:"B" (Array.make n_vertices teleport);
  ]

(* -- one round ------------------------------------------------------------ *)

(* The requests of round [round]; round 0 is the warm-up.
   Fresh-shape literals k/8192 are exact in binary and in decimal, and
   never repeat within a daemon's life. *)
let round_requests (g : graph) ~seed ~(round : int) : request list =
  let prng = Prng.create ((seed * 1_000_003) + round) in
  let x = Array.init n_vertices (fun _ -> Prng.float_range prng 0.5 1.5) in
  let r0 =
    let raw = Array.init n_vertices (fun _ -> Prng.float_range prng 0.5 1.5) in
    let total = sum raw in
    Array.map (fun v -> v /. total) raw
  in
  let req kind line_of expect k =
    let id = Printf.sprintf "r%d-%d" round (k + 1) in
    { id; kind; line = line_of id; expect }
  in
  let query ?(values = true) src id = P.encode_query ~id ~values src in
  let matvec_src = "y[i] = sum[j](E[i,j] * x[j])" in
  let two_hop_src = "h = sum[i,j,k](E[i,j] * E[j,k] * x[k])" in
  let lit k = float_of_int (1 + (round * 2) + k) /. 8192.0 in
  let fresh_matvec = Printf.sprintf "fa = sum[i,j](E[i,j] * (x[j] + %.13f))" (lit 0) in
  let fresh_two_hop =
    Printf.sprintf "fb = sum[i,j,k](E[i,j] * E[j,k] * (x[k] + %.13f))" (lit 1)
  in
  let pagerank_src =
    Printf.sprintf "R = iterate %d {\n  R[j] := B[j] + 0.85 * sumof[i](M[i,j] * R[i])\n}\n"
      pagerank_iters
  in
  let y = lazy (matvec g x) in
  let nnz_y = Array.fold_left (fun a d -> if d > 0 then a + 1 else a) 0 g.outdeg in
  let shifted k = Array.map (fun v -> v +. lit k) x in
  List.mapi
    (fun k r -> r k)
  [
    req Bind (fun id -> bind_line ~id ~name:"x" x) (Bound n_vertices);
    req Repeat (query matvec_src) (Vector (fun () -> Lazy.force y));
    req Repeat (query ~values:false matvec_src) (Nnz nnz_y);
    req Repeat (query two_hop_src) (Scalar (fun () -> two_hop g x));
    req Repeat (query matvec_src) (Vector (fun () -> Lazy.force y));
    req Fresh (query fresh_matvec) (Scalar (fun () -> sum (matvec g (shifted 0))));
    req Repeat (query two_hop_src) (Scalar (fun () -> two_hop g x));
    req Fresh (query fresh_two_hop) (Scalar (fun () -> two_hop g (shifted 1)));
    req Repeat (query ~values:false matvec_src) (Nnz nnz_y);
    req Bind (fun id -> bind_line ~id ~name:"R" r0) (Bound n_vertices);
    req Iterate (query pagerank_src) (Pagerank r0);
  ]

(* -- checking a response ------------------------------------------------ *)

let ( let* ) = Result.bind

let field key conv (j : J.t) : (_, string) result =
  match Option.bind (J.member key j) conv with
  | Some v -> Ok v
  | None -> Error ("response lacks " ^ key)

let first_output (j : J.t) : (J.t, string) result =
  let* outs = field "outputs" J.to_list j in
  match outs with o :: _ -> Ok o | [] -> Error "no outputs"

(* Entries of the first output as a dense vector (or a scalar). *)
let output_values (j : J.t) : (float array, string) result =
  let* o = first_output j in
  let* entries = field "entries" J.to_list o in
  let* dims = field "dims" J.to_list o in
  let v = Array.make (match dims with [] -> 1 | _ -> n_vertices) 0.0 in
  List.iter
    (fun e ->
      match Option.map (List.filter_map J.to_float) (J.to_list e) with
      | Some [ x ] -> v.(0) <- x
      | Some [ i; x ] -> v.(int_of_float i) <- x
      | _ -> ())
    entries;
  Ok v

let compare_vectors (got : float array) (want : float array) : (unit, string) result =
  let bad = ref None in
  Array.iteri
    (fun i w -> if !bad = None && not (Util.close ~want:w got.(i)) then bad := Some i)
    want;
  match !bad with
  | None -> Ok ()
  | Some i -> Error (Printf.sprintf "entry %d = %.17g, expected %.17g" i got.(i) want.(i))

let check (g : graph) (r : request) (response : string) : (unit, string) result =
  let* j = J.parse response in
  let* ok = field "ok" J.to_bool j in
  if not ok then Error ("error response: " ^ response)
  else
    match r.expect with
    | Bound nnz ->
        let* got = field "nnz" J.to_float j in
        if int_of_float got = nnz then Ok () else Error "bound nnz differs"
    | Nnz nnz ->
        let* o = first_output j in
        let* got = field "nnz" J.to_float o in
        if int_of_float got = nnz then Ok ()
        else Error (Printf.sprintf "nnz %.0f, expected %d" got nnz)
    | Vector want ->
        let* got = output_values j in
        compare_vectors got (want ())
    | Scalar want ->
        let* got = output_values j in
        compare_vectors got [| want () |]
    | Pagerank r0 ->
        let* fixpoints = field "fixpoints" J.to_list j in
        let* iters =
          match fixpoints with
          | f :: _ -> field "iterations" J.to_float f
          | [] -> Error "no fixpoint report"
        in
        let* got = output_values j in
        compare_vectors got (pagerank g r0 ~iters:(int_of_float iters))

(* -- the daemon --------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let spawn ~(galley : string) ~(out_dir : string) : daemon =
  let socket = Filename.concat out_dir "serve.sock" in
  let log =
    Unix.openfile (Filename.concat out_dir "serve.log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process galley
      [| galley; "serve"; "--socket"; socket; "--domains"; string_of_int domains;
         "--flight-cap"; string_of_int flight_cap |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  { pid; socket }

let running : daemon list ref = ref []

let stop (d : daemon) =
  (match C.rpc ~socket:d.socket (P.encode_shutdown ()) with
  | Ok _ -> ()
  | Error _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  running := List.filter (fun x -> x.pid <> d.pid) !running

(* A daemon still running when the benchmark exits, normally or not, is
   stopped and waited for. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid))
        !running)

let connect (d : daemon) : C.t =
  match C.connect ~retries:12 ~backoff:0.01 d.socket with
  | Ok c -> c
  | Error e -> failwith ("cannot reach galley serve: " ^ e)

let send (conn : C.t) (line : string) : string =
  match C.request conn line with Ok resp -> resp | Error e -> failwith ("galley serve: " ^ e)

let send_ok conn line =
  let resp = send conn line in
  match J.parse resp with
  | Ok j when J.member "ok" j = Some (J.Bool true) -> ()
  | _ -> failwith ("set-up request refused: " ^ resp)

(* Generate the graph, start a daemon, bind the resident tensors and run
   one untimed round. *)
let setup_once ~galley ~out_dir ~seed : graph * daemon =
  let g = make_graph ~seed in
  let d = spawn ~galley ~out_dir in
  running := d :: !running;
  let conn = connect d in
  Fun.protect
    ~finally:(fun () -> C.close conn)
    (fun () ->
      List.iter (send_ok conn) (graph_binds g);
      List.iter (fun r -> send_ok conn r.line) (round_requests g ~seed ~round:0));
  (g, d)

let setup ~galley ~out_dir ~seed : graph * daemon * float =
  let rec go k times =
    let t0 = Util.now () in
    let g, d = setup_once ~galley ~out_dir ~seed in
    let times = (Util.now () -. t0) :: times in
    if k = Util.setups then (g, d, Util.median times)
    else begin
      stop d;
      go (k + 1) times
    end
  in
  go 1 []

(* -- the closed loop ----------------------------------------------------- *)

type sample = { req : request; t_send : float; t_recv : float; response : string }

(* Whole rounds until [seconds] have passed; rounds continue from
   [first_round] so that fresh shapes stay fresh.  Returns the samples,
   the loop's wall time and the next round. *)
let closed_loop (g : graph) (d : daemon) ~seed ~seconds ~first_round ~(traced : bool) :
    sample list * float * int =
  let conn = connect d in
  let acc = ref [] and round = ref first_round in
  let t_start = Util.now () in
  while Util.now () -. t_start < seconds do
    let round_id = if traced then Spans.fresh_id () else 0 in
    let r_t0 = Util.now () in
    List.iter
      (fun r ->
        let t_send = Util.now () in
        let response = send conn r.line in
        let t_recv = Util.now () in
        if traced then
          Spans.add
            { Spans.id = Spans.fresh_id (); parent = round_id; name = kind_name r.kind;
              t0 = t_send; t1 = t_recv; args = [ ("id", r.id) ] };
        acc := { req = r; t_send; t_recv; response } :: !acc)
      (round_requests g ~seed ~round:!round);
    if traced then
      Spans.add
        { Spans.id = round_id; parent = 0; name = "round"; t0 = r_t0; t1 = Util.now ();
          args = [ ("round", string_of_int !round) ] };
    incr round
  done;
  let wall = Util.now () -. t_start in
  C.close conn;
  (List.rev !acc, wall, !round)

let count_failed (g : graph) (samples : sample list) : int =
  List.fold_left
    (fun acc s ->
      match check g s.req s.response with
      | Ok () -> acc
      | Error msg ->
          Util.log "%s (%s): %s" s.req.id (kind_name s.req.kind) msg;
          acc + 1)
    0 samples

let latency s = s.t_recv -. s.t_send

(* op_ms.tail reports this percentile: a run completes thousands of
   requests, so well over ten lie beyond it. *)
let tail = 0.99

let run_untraced ~galley ~out_dir ~seed ~seconds : unit =
  let g, d, setup_s = setup ~galley ~out_dir ~seed in
  let samples, wall, _ = closed_loop g d ~seed ~seconds ~first_round:1 ~traced:false in
  let rss = Util.peak_rss_mb d.pid in
  stop d;
  let failed = count_failed g samples in
  let times = Array.of_list (List.map latency samples) in
  Array.sort compare times;
  let n = Array.length times in
  Util.log "serve_mix: %d requests in %.2fs; op_ms.tail is p%g, %d beyond it" n wall
    (tail *. 100.0) (Util.beyond n tail);
  Util.print_result ~correct:(failed = 0) ~attempted:n ~failed
    [
      ("setup_s", setup_s, "s");
      ("ops_per_s", float_of_int n /. wall, "ops/s");
      ("op_ms.p50", 1000.0 *. Util.percentile times 0.5, "ms");
      ("op_ms.tail", 1000.0 *. Util.percentile times tail, "ms");
      ("peak_rss_mb", rss, "MB");
    ]

(* -- traced run ------------------------------------------------------------ *)

let metrics_snapshot (d : daemon) : (string * float) list =
  match C.rpc ~socket:d.socket (P.encode_metrics ()) with
  | Error e -> failwith ("metrics: " ^ e)
  | Ok resp -> (
      match Result.map (J.member "metrics") (J.parse resp) with
      | Ok (Some (J.Obj kvs)) -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float v)) kvs
      | _ -> failwith ("metrics: unexpected response " ^ resp))

(* Flight records by request id. *)
let flight_records (d : daemon) : (string, J.t) Hashtbl.t =
  let tbl = Hashtbl.create 4096 in
  (match C.rpc ~socket:d.socket (P.encode_debug ()) with
  | Error e -> failwith ("debug: " ^ e)
  | Ok resp -> (
      match Result.map (J.member "records") (J.parse resp) with
      | Ok (Some (J.Arr rs)) ->
          List.iter
            (fun r -> match Option.bind (J.member "id" r) J.to_string with
              | Some id -> Hashtbl.replace tbl id r
              | None -> ())
            rs
      | _ -> failwith "debug: unexpected response"));
  tbl

(* The untraced phase, then the traced phase on the same daemon: client
   spans around every request, joined with the daemon's flight record of
   that request to split its latency into queue wait, server time and
   wire time. *)
let run_traced ~galley ~out_dir ~seed ~seconds ~trace_path : unit =
  let g, d, _ = setup ~galley ~out_dir ~seed in
  let plain, plain_wall, next_round = closed_loop g d ~seed ~seconds ~first_round:1 ~traced:false in
  let m0 = metrics_snapshot d in
  let samples, wall, _ = closed_loop g d ~seed ~seconds ~first_round:next_round ~traced:true in
  let m1 = metrics_snapshot d in
  let flights = flight_records d in
  stop d;
  let failed = count_failed g samples + count_failed g plain in
  let n_spans = Spans.write_chrome trace_path in
  Util.log "serve_mix: %d spans written to %s" n_spans trace_path;
  let n = List.length samples in
  let delta k =
    (try List.assoc k m1 with Not_found -> 0.0) -. try List.assoc k m0 with Not_found -> 0.0
  in
  let fn = float_of_int n in
  (* a numeric field of a flight record; [ms] turns microseconds into ms *)
  let num r k = Option.value ~default:0.0 (Option.bind (J.member k r) J.to_float) in
  let ms r k = num r k /. 1000.0 in
  let joined = List.filter_map (fun s -> Option.map (fun r -> (s, r)) (Hashtbl.find_opt flights s.req.id)) samples in
  if List.length joined < n then
    Util.log "serve_mix: %d of %d requests have no flight record" (n - List.length joined) n;
  let p50 f l = Util.median (List.map f l) in
  let queries = List.filter (fun (s, _) -> s.req.kind <> Bind) joined in
  let mean f l =
    match l with [] -> 0.0 | _ -> List.fold_left (fun a x -> a +. f x) 0.0 l /. float_of_int (List.length l)
  in
  let kind_p50 k =
    1000.0 *. p50 latency (List.filter (fun s -> s.req.kind = k) samples)
  in
  let iterates =
    List.filter_map
      (fun (s, r) ->
        if s.req.kind <> Iterate then None
        else
          match Result.map (fun j -> J.member "fixpoints" j) (J.parse s.response) with
          | Ok (Some (J.Arr (f :: _))) ->
              Some (num f "iterations", num f "replans", ms r "total_us" -. ms r "queue_us")
          | _ -> None)
      joined
  in
  let kc_hits = delta "kernel_cache.hits" and kc_miss = delta "kernel_cache.misses" in
  let cse_hits = delta "cse.hits" and cse_miss = delta "cse.misses" in
  let untraced_ms = 1000.0 *. plain_wall /. float_of_int (List.length plain)
  and traced_ms = 1000.0 *. wall /. fn in
  Util.log "serve_mix: traced %.3f ms/request, untraced %.3f ms/request" traced_ms untraced_ms;
  Layers.print ~correct:(failed = 0) ~attempted:(n + List.length plain) ~failed
    [
      ("stats.estimator_calls_per_op", (delta "estimator.calls.chain" +. delta "estimator.calls.uniform") /. fn);
      ("logical.ms_per_op", mean (fun (_, r) -> ms r "logical_us") queries);
      ("logical.search_nodes_per_op", delta "optimizer.search_nodes" /. fn);
      ("physical.ms_per_op", mean (fun (_, r) -> ms r "physical_us") queries);
      ("compile.ms_per_op", mean (fun (_, r) -> ms r "compile_us") queries);
      ("compile.kernels_per_op", mean (fun (_, r) -> num r "compiles") queries);
      ("engine.execute_ms_per_op", mean (fun (_, r) -> ms r "execute_us") queries);
      ("engine.kernels_per_op", mean (fun (_, r) -> num r "kernels") queries);
      ("engine.kernel_cache_hit_ratio", Util.ratio kc_hits (kc_hits +. kc_miss));
      ("engine.kernel_cache_hits_per_op", kc_hits /. fn);
      ("engine.kernel_cache_lookups_per_op", (kc_hits +. kc_miss) /. fn);
      ("engine.cse_hit_ratio", Util.ratio cse_hits (cse_hits +. cse_miss));
      ("engine.cse_hits_per_op", cse_hits /. fn);
      ("engine.cse_lookups_per_op", (cse_hits +. cse_miss) /. fn);
      ("parallel.morsels_per_op", delta "kernel.morsels" /. fn);
      ("parallel.steals_per_op", delta "kernel.steals" /. fn);
      ("fixpoint.iterations_per_request", mean (fun (i, _, _) -> i) iterates);
      ("fixpoint.replans_per_request", mean (fun (_, r, _) -> r) iterates);
      ( "fixpoint.ms_per_iteration",
        Util.ratio (List.fold_left (fun a (_, _, ms) -> a +. ms) 0.0 iterates)
          (List.fold_left (fun a (i, _, _) -> a +. i) 0.0 iterates) );
      ("serve.queue_ms.p50", p50 (fun (_, r) -> ms r "queue_us") joined);
      ("serve.server_ms.p50", p50 (fun (_, r) -> ms r "total_us" -. ms r "queue_us") joined);
      ("serve.wire_ms.p50", p50 (fun (s, r) -> (1000.0 *. latency s) -. ms r "total_us") joined);
      ("serve.repeat_ms.p50", kind_p50 Repeat);
      ("serve.fresh_ms.p50", kind_p50 Fresh);
      ("serve.bind_ms.p50", kind_p50 Bind);
      ("serve.iterate_ms.p50", kind_p50 Iterate);
      ( "serve.response_kb_per_request",
        List.fold_left (fun a s -> a +. float_of_int (String.length s.response)) 0.0 samples /. fn /. 1024.0 );
      ("serve.cse_hit_ratio", Util.ratio cse_hits (cse_hits +. cse_miss));
      ("serve.cse_hits_per_request", cse_hits /. fn);
      ("serve.cse_lookups_per_request", (cse_hits +. cse_miss) /. fn);
      ("serve.kernel_cache_hit_ratio", Util.ratio kc_hits (kc_hits +. kc_miss));
      ("serve.kernel_cache_hits_per_request", kc_hits /. fn);
      ("serve.kernel_cache_lookups_per_request", (kc_hits +. kc_miss) /. fn);
      ("trace.overhead_pct", 100.0 *. Util.ratio (traced_ms -. untraced_ms) untraced_ms);
      ("trace.traced_ms_per_op", traced_ms);
      ("trace.untraced_ms_per_op", untraced_ms);
    ]
